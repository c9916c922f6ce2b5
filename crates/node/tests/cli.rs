//! The command-line contract of `remo-collector` and `remo-node`: the
//! shared rows of `tests/cli_contract.rs`, plus the values a flag
//! rejects that an environment variable once took silently.

#![allow(clippy::unwrap_used)]

#[path = "../../../tests/cli_contract.rs"]
mod cli_contract;

use cli_contract::{keeps_the_contract, Bin};

#[test]
fn collector_keeps_the_cli_contract() {
    let bin = Bin {
        exe: env!("CARGO_BIN_EXE_remo-collector"),
        name: "remo-collector",
        lead: &[],
        valued: "--epoch-ms",
    };
    keeps_the_contract(
        &bin,
        &[
            &["--epoch-ms", "15O"],
            &["--startup-wait-ms", "-1"],
            &["--nodes", "0"],
            &["--addr", "127.0.0.1:0", "stray"],
        ],
    );
}

#[test]
fn node_keeps_the_cli_contract() {
    let bin = Bin {
        exe: env!("CARGO_BIN_EXE_remo-node"),
        name: "remo-node",
        lead: &[],
        valued: "--id",
    };
    keeps_the_contract(&bin, &[&[], &["--id", "three"]]);
}

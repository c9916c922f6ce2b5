//! The command-line contract of `remo-obs`: the shared rows of
//! `tests/cli_contract.rs`, plus its subcommand word and its one
//! required choice.

#![allow(clippy::unwrap_used)]

#[path = "../../../tests/cli_contract.rs"]
mod cli_contract;

#[test]
fn remo_obs_keeps_the_cli_contract() {
    let bin = cli_contract::Bin {
        exe: env!("CARGO_BIN_EXE_remo-obs"),
        name: "remo-obs",
        lead: &["dump"],
        valued: "--trace",
    };
    cli_contract::keeps_the_contract(&bin, &[&[], &["dump"], &["trace.jsonl"]]);
}

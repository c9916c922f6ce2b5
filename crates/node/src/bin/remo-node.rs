//! One monitoring-node process.
//!
//! ```text
//! remo-node --addr 127.0.0.1:7701 --id 3
//! ```
//!
//! Connects to the collector, registers, and runs the agent state
//! machine until the collector says shutdown (or the collector stays
//! gone past the reconnect budget). Samples come from the
//! deterministic distributed sampler so the collector can verify
//! end-to-end integrity; a real deployment would plug in a probe here.
//!
//! Exit status: 0 when the node stopped — the collector said shutdown
//! or stayed gone past the reconnect budget — and for `--help`; 2 on a
//! usage problem. A node's run has no failure of its own to exit 1 on.

use remo_core::NodeId;
use remo_node::{dist_sampler, spawn_node, NodeConfig};
use remo_obs::cli::Cli;
use remo_obs::outln;
use std::process::ExitCode;

const CLI: Cli = Cli {
    bin: "remo-node",
    usage: "\
usage: remo-node --id <n> [--addr <addr>]   (the collector's; default 127.0.0.1:7701)
",
};

fn main() -> ExitCode {
    let args = match CLI.args(&["--id <n>", "--addr <addr>"], "") {
        Ok(args) => args,
        Err(exit) => return exit,
    };
    let id = match args.num("--id") {
        Ok(Some(id)) => id,
        Ok(None) => return CLI.usage_error("--id is required"),
        Err(message) => return CLI.usage_error(&message),
    };
    let addr = args.get("--addr").unwrap_or("127.0.0.1:7701");
    outln!("remo-node {id} connecting to {addr}");
    let handle = spawn_node(NodeConfig::new(addr, NodeId(id)), dist_sampler());
    handle.join();
    outln!("remo-node {id} done");
    ExitCode::SUCCESS
}

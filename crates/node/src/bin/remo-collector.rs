//! The collector process: binds, waits for nodes, runs epochs, prints
//! a reconciliation summary (optionally to a JSON report file).
//!
//! ```text
//! remo-collector --addr 127.0.0.1:7701 --nodes 8 --attrs 2 --epochs 40 \
//!     --report /tmp/remo-report.json
//! ```
//!
//! Stdout markers (stable, scripted against by `check.sh`):
//! `listening on ADDR`, `epochs started`, `run complete`.
//!
//! Exit status: 0 when the run completed (and for `--help`), 1 when it
//! failed (bind, capacities, report write), 2 on a usage problem.

use remo_core::{AttrId, CapacityMap, NodeId, PairSet};
use remo_node::{CollectorService, ServiceConfig};
use remo_obs::cli::Cli;
use std::io::Write as _;
use std::process::ExitCode;
use std::time::Duration;

const CLI: Cli = Cli {
    bin: "remo-collector",
    usage: "\
usage: remo-collector [--addr <addr>] [--nodes <n>] [--attrs <k>] [--epochs <e>]
                      [--epoch-ms <ms>] [--startup-wait-ms <ms>] [--report <file>]
defaults: 127.0.0.1:7701, 8 nodes, 2 attributes, 40 epochs of 150 ms, and
10 000 ms for the nodes to register before the first epoch
",
};

const FLAGS: &[&str] = &[
    "--addr <addr>",
    "--nodes <n>",
    "--attrs <k>",
    "--epochs <e>",
    "--epoch-ms <ms>",
    "--startup-wait-ms <ms>",
    "--report <file>",
];

/// Per-node budget in cost units per epoch.
const NODE_CAPACITY: f64 = 1000.0;
/// Collector budget in cost units per epoch.
const COLLECTOR_CAPACITY: f64 = 100_000.0;

fn main() -> ExitCode {
    run().err().unwrap_or(ExitCode::SUCCESS)
}

fn run() -> Result<(), ExitCode> {
    let args = CLI.args(FLAGS, "")?;
    let usage = |message: String| CLI.usage_error(&message);
    let failed = |message: String| {
        eprintln!("remo-collector: {message}");
        ExitCode::FAILURE
    };
    let nodes: u32 = args.num("--nodes").map_err(usage)?.unwrap_or(8);
    let attrs: u32 = args.num("--attrs").map_err(usage)?.unwrap_or(2);
    let epochs = args.num("--epochs").map_err(usage)?.unwrap_or(40);
    if nodes == 0 || attrs == 0 || epochs == 0 {
        return Err(usage(
            "--nodes, --attrs and --epochs must be positive".into(),
        ));
    }
    let pairs: PairSet = (0..nodes)
        .flat_map(|n| (0..attrs).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let caps = CapacityMap::uniform(nodes as usize, NODE_CAPACITY, COLLECTOR_CAPACITY)
        .map_err(|e| failed(format!("capacity map: {e:?}")))?;
    let mut cfg = ServiceConfig::new(args.get("--addr").unwrap_or("127.0.0.1:7701"), pairs, caps);
    cfg.epochs = epochs;
    if let Some(ms) = args.num("--epoch-ms").map_err(usage)? {
        cfg.epoch_interval = Duration::from_millis(ms);
    }
    if let Some(ms) = args.num("--startup-wait-ms").map_err(usage)? {
        cfg.startup_wait = Duration::from_millis(ms);
    }

    let service = CollectorService::start(cfg).map_err(|e| failed(format!("bind: {e}")))?;
    println!("remo-collector listening on {}", service.addr());
    let connected = service.wait_for_nodes(nodes as usize);
    println!("remo-collector {connected} of {nodes} nodes registered, epochs started");
    let summary = service.run(|report| {
        if report.confirmed_dead > 0 || report.repaired > 0 || report.recovered > 0 {
            println!(
                "remo-collector epoch {}: confirmed_dead={} repaired={} recovered={}",
                report.epoch, report.confirmed_dead, report.repaired, report.recovered
            );
        }
    });

    let json = summary.to_json();
    println!("remo-collector run complete: {json}");
    if let Some(path) = args.get("--report") {
        let mut f = std::fs::File::create(path).map_err(|e| failed(format!("{path}: {e}")))?;
        f.write_all(json.as_bytes())
            .and_then(|()| f.write_all(b"\n"))
            .map_err(|e| failed(format!("{path}: {e}")))?;
    }
    Ok(())
}

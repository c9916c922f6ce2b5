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

use remo_core::{AttrId, CapacityMap, NodeId, PairSet};
use remo_node::{config, CollectorService, ServiceConfig};
use std::io::Write as _;

struct Args {
    addr: String,
    nodes: u32,
    attrs: u32,
    epochs: u64,
    report: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        addr: "127.0.0.1:7701".to_string(),
        nodes: 8,
        attrs: 2,
        epochs: 40,
        report: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut take = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--addr" => args.addr = take()?,
            "--nodes" => args.nodes = take()?.parse().map_err(|e| format!("--nodes: {e}"))?,
            "--attrs" => args.attrs = take()?.parse().map_err(|e| format!("--attrs: {e}"))?,
            "--epochs" => args.epochs = take()?.parse().map_err(|e| format!("--epochs: {e}"))?,
            "--report" => args.report = Some(take()?),
            "--help" | "-h" => {
                return Err(
                    "usage: remo-collector [--addr A] [--nodes N] [--attrs K] [--epochs E] \
                     [--report FILE]"
                        .to_string(),
                )
            }
            other => return Err(format!("unknown flag: {other}")),
        }
    }
    if args.nodes == 0 || args.attrs == 0 || args.epochs == 0 {
        return Err("--nodes, --attrs, and --epochs must be positive".to_string());
    }
    Ok(args)
}

fn run() -> Result<(), String> {
    let args = parse_args()?;

    let pairs: PairSet = (0..args.nodes)
        .flat_map(|n| (0..args.attrs).map(move |a| (NodeId(n), AttrId(a))))
        .collect();
    let caps = CapacityMap::uniform(
        args.nodes as usize,
        config::node_capacity(),
        config::collector_capacity(),
    )
    .map_err(|e| format!("capacity map: {e:?}"))?;

    let mut cfg = ServiceConfig::new(args.addr, pairs, caps);
    cfg.epochs = args.epochs;

    let service = CollectorService::start(cfg).map_err(|e| format!("bind: {e}"))?;
    println!("remo-collector listening on {}", service.addr());
    let connected = service.wait_for_nodes(args.nodes as usize);
    println!(
        "remo-collector {} of {} nodes registered, epochs started",
        connected, args.nodes
    );
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
    if let Some(path) = args.report {
        let mut f = std::fs::File::create(&path).map_err(|e| format!("{path}: {e}"))?;
        f.write_all(json.as_bytes())
            .and_then(|()| f.write_all(b"\n"))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(())
}

fn main() {
    if let Err(e) = run() {
        eprintln!("remo-collector: {e}");
        std::process::exit(1);
    }
}

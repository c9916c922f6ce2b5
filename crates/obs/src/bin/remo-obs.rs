//! `remo-obs` — summarize observability exports.
//!
//! ```text
//! remo-obs dump [--trace <file.jsonl>] [--metrics <file.prom>]
//! ```
//!
//! Reads the JSON-lines trace and/or Prometheus text files written by
//! `remo-plan --trace/--metrics` (and the bench binaries) and prints
//! per-name span/event aggregates and metric samples.
//!
//! Exit status: 0 on success (and for `--help`), 1 when a file is
//! malformed, 2 on usage or I/O problems.

use remo_obs::cli::{self, Cli};
use remo_obs::summary::{
    parse_prometheus, parse_trace, render_metrics_summary, render_trace_summary,
};
use std::process::ExitCode;

const CLI: Cli = Cli {
    bin: "remo-obs",
    usage: "\
usage: remo-obs dump [--trace <file.jsonl>] [--metrics <file.prom>]

reads exports produced by `remo-plan --trace/--metrics` and the bench
binaries, and prints per-name span/event aggregates and metric samples;
at least one of --trace/--metrics is required
",
};

fn main() -> ExitCode {
    let words = match CLI.words() {
        Ok(words) => words,
        Err(exit) => return exit,
    };
    let Some(("dump", rest)) = words.split_first().map(|(w, rest)| (w.as_str(), rest)) else {
        return CLI.usage_error("expected the `dump` subcommand");
    };
    let flags = ["--trace <file.jsonl>", "--metrics <file.prom>"];
    let args = match cli::parse(&flags, "", rest) {
        Ok(args) => args,
        Err(message) => return CLI.usage_error(&message),
    };
    let (trace_path, metrics_path) = (args.get("--trace"), args.get("--metrics"));
    if trace_path.is_none() && metrics_path.is_none() {
        return CLI.usage_error("give at least one of --trace/--metrics");
    }

    let read = |path: &str| {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("remo-obs: cannot read {path}: {e}");
            ExitCode::from(2)
        })
    };
    let mut malformed = false;
    if let Some(path) = trace_path {
        match read(path).map(|text| parse_trace(&text)) {
            Err(exit) => return exit,
            Ok(Ok(summary)) => {
                println!("trace {path}:");
                print!("{}", render_trace_summary(&summary));
            }
            Ok(Err(e)) => {
                eprintln!("remo-obs: {path}: {e}");
                malformed = true;
            }
        }
    }
    if let Some(path) = metrics_path {
        match read(path).map(|text| parse_prometheus(&text)) {
            Err(exit) => return exit,
            Ok(Ok(samples)) => {
                println!("metrics {path}: {} sample(s)", samples.len());
                print!("{}", render_metrics_summary(&samples));
            }
            Ok(Err(e)) => {
                eprintln!("remo-obs: {path}: {e}");
                malformed = true;
            }
        }
    }
    ExitCode::from(u8::from(malformed))
}

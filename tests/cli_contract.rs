//! The command-line contract all five binaries keep through the parser
//! they share (`remo_obs::cli`): `--help` or `-h` exits 0 with the usage
//! on stdout; a usage problem exits 2 with `<bin>: <message>` and the
//! usage on stderr, and nothing on stdout. A closed stdout (the reader
//! of a pipe went away) is no panic: the run keeps its exit code. Each
//! package's CLI test includes this file, since `CARGO_BIN_EXE_<name>`
//! exists only there.

use std::process::Command;

/// One binary as the table drives it.
pub struct Bin {
    /// `env!("CARGO_BIN_EXE_<name>")`.
    pub exe: &'static str,
    pub name: &'static str,
    /// The subcommand words its flags follow.
    pub lead: &'static [&'static str],
    /// A flag that takes a value.
    pub valued: &'static str,
}

/// Runs the shared rows against `bin`, then its own `usage_problems`
/// (whole command lines, each of which must exit 2).
pub fn keeps_the_contract(bin: &Bin, usage_problems: &[&[&str]]) {
    let lead = bin.lead.iter().copied();
    let mut rows: Vec<(Vec<&str>, i32)> = vec![
        (vec!["--help"], 0),
        (lead.clone().chain(["-h"]).collect(), 0),
        (lead.clone().chain(["--no-such-flag"]).collect(), 2),
        (lead.chain([bin.valued]).collect(), 2),
    ];
    rows.extend(usage_problems.iter().map(|words| (words.to_vec(), 2)));
    let usage = format!("usage: {}", bin.name);
    for (words, exit) in rows {
        let out = Command::new(bin.exe).args(&words).output().unwrap();
        let (stdout, stderr) = (
            String::from_utf8(out.stdout).unwrap(),
            String::from_utf8(out.stderr).unwrap(),
        );
        let row = format!(
            "{} {words:?}: stdout {stdout:?}, stderr {stderr:?}",
            bin.name
        );
        assert_eq!(out.status.code(), Some(exit), "{row}");
        if exit == 0 {
            assert!(stdout.starts_with(&usage) && stderr.is_empty(), "{row}");
        } else {
            assert!(stdout.is_empty(), "{row}");
            assert!(stderr.starts_with(&format!("{}: ", bin.name)), "{row}");
            assert!(stderr.contains(&usage), "{row}");
        }
    }
    survives_a_closed_stdout(bin, &[&["--help"]]);
}

/// Runs each command line with the read end of its stdout already
/// closed: the binary must not panic and must exit 0, 1 or 2.
pub fn survives_a_closed_stdout(bin: &Bin, lines: &[&[&str]]) {
    for words in lines {
        let (reader, writer) = std::io::pipe().unwrap();
        drop(reader);
        let out = Command::new(bin.exe)
            .args(*words)
            .stdout(writer)
            .output()
            .unwrap();
        let stderr = String::from_utf8(out.stderr).unwrap();
        let row = format!("{} {words:?}: stderr {stderr:?}", bin.name);
        assert!(!stderr.contains("panicked"), "{row}");
        assert!(matches!(out.status.code(), Some(0..=2)), "{row}");
    }
}

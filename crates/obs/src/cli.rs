//! The command-line parser of all five binaries. Flags are declared as
//! the usage reads them (`--dot`, `--depth <n>`), the one input as
//! `<required>`, `[<optional>]` or `""` for none; a flag's value may be
//! optional too (`--example [<case>]`). A subcommand word
//! (`remo-obs dump`) is the caller's: it dispatches on [`Cli::words`]
//! and hands [`parse`] the rest. `--help` or `-h` prints the usage on
//! stdout and exits 0; a usage problem prints `<bin>: <message>` and
//! the usage on stderr and exits 2.
//!
//! The binaries write stdout through [`out!`](crate::out) and
//! [`outln!`](crate::outln): a reader that goes away early
//! (`remo-check audit --list-rules | head -2`) drops the rest of the
//! text instead of panicking, and the run keeps its own exit code.

use std::fmt;
use std::io::{self, Write};
use std::process::ExitCode;
use std::str::FromStr;

/// Writes to stdout like `print!`, except that a closed stdout is not a
/// panic: the text is dropped and the caller carries on to its exit
/// code. Any other write error is reported on stderr.
pub fn print(args: fmt::Arguments<'_>) {
    if let Err(e) = io::stdout().lock().write_fmt(args) {
        if e.kind() != io::ErrorKind::BrokenPipe {
            eprintln!("cannot write to stdout: {e}");
        }
    }
}

/// `print!` through [`cli::print`](crate::cli::print).
#[macro_export]
macro_rules! out {
    ($($arg:tt)*) => {
        $crate::cli::print(format_args!($($arg)*))
    };
}

/// `println!` through [`cli::print`](crate::cli::print).
#[macro_export]
macro_rules! outln {
    ($($arg:tt)*) => {
        $crate::cli::print(format_args!("{}\n", format_args!($($arg)*)))
    };
}

/// A binary's name and usage text.
#[derive(Debug, Clone, Copy)]
pub struct Cli {
    /// The name a usage error starts with.
    pub bin: &'static str,
    /// The usage text, starting `usage: <bin> …` and ending in a newline.
    pub usage: &'static str,
}

/// One command line: the input, if given, and every flag occurrence in
/// order (a flag without a value has an empty one).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Args {
    /// The positional input.
    pub input: Option<String>,
    flags: Vec<(String, String)>,
}

impl Args {
    /// Every value given to `flag`, in order.
    pub fn all<'a>(&'a self, flag: &'a str) -> impl Iterator<Item = &'a str> {
        let hits = self.flags.iter().filter(move |(name, _)| name == flag);
        hits.map(|(_, value)| value.as_str())
    }

    /// The last value given to `flag`.
    pub fn get<'a>(&'a self, flag: &'a str) -> Option<&'a str> {
        self.all(flag).last()
    }

    /// Whether `flag` was given at all.
    pub fn has(&self, flag: &str) -> bool {
        self.get(flag).is_some()
    }

    /// The last value given to `flag`, parsed as a number.
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>, String> {
        let parse = |text: &str| match text.parse() {
            Ok(n) => Ok(n),
            Err(_) => Err(format!("{flag} needs a number, got `{text}`")),
        };
        self.get(flag).map(parse).transpose()
    }
}

impl Cli {
    /// The words after the program name; `Err` after `--help` printed
    /// the usage.
    pub fn words(&self) -> Result<Vec<String>, ExitCode> {
        let words: Vec<String> = std::env::args().skip(1).collect();
        if words.iter().any(|w| w == "--help" || w == "-h") {
            crate::out!("{}", self.usage);
            return Err(ExitCode::SUCCESS);
        }
        Ok(words)
    }

    /// The whole command line, [`parse`]d; `Err` once the usage was
    /// printed (exit 0 for `--help`, 2 for a usage problem).
    pub fn args(&self, flags: &[&str], input: &str) -> Result<Args, ExitCode> {
        parse(flags, input, &self.words()?).map_err(|message| self.usage_error(&message))
    }

    /// Prints `<bin>: <message>` and the usage on stderr; exit code 2.
    pub fn usage_error(&self, message: &str) -> ExitCode {
        eprintln!("{}: {message}", self.bin);
        eprintln!("{}", self.usage);
        ExitCode::from(2)
    }
}

/// Splits `words` into flag occurrences and the input, as declared in
/// usage form. `Err` is a usage problem.
pub fn parse(flags: &[&str], input: &str, words: &[String]) -> Result<Args, String> {
    let mut args = Args::default();
    let mut words = words.iter().peekable();
    while let Some(word) = words.next() {
        if word.starts_with("--") {
            let Some(form) = flags.iter().find(|f| f.split(' ').next() == Some(word)) else {
                return Err(format!("unknown option `{word}`"));
            };
            let value = match form.split_once(' ') {
                None => String::new(),
                Some((_, form)) if form.starts_with('[') => words
                    .next_if(|value| !value.starts_with("--"))
                    .cloned()
                    .unwrap_or_default(),
                Some((_, form)) => match words.next() {
                    Some(value) if !value.starts_with("--") => value.clone(),
                    _ => return Err(format!("{word} requires {form}")),
                },
            };
            args.flags.push((word.clone(), value));
        } else if input.is_empty() {
            return Err(format!("unexpected argument `{word}`"));
        } else if args.input.replace(word.clone()).is_some() {
            return Err(format!("more than one input given: {input}"));
        }
    }
    if args.input.is_none() && input.starts_with('<') {
        return Err(format!("no {input} given"));
    }
    Ok(args)
}

#[cfg(test)]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    const FLAGS: &[&str] = &[
        "--dot",
        "--disable <rule>",
        "--depth <n>",
        "--example [<case>]",
    ];

    #[test]
    fn repeated_flags_keep_their_order() {
        let args = parse(FLAGS, "", &words("--disable b --dot --disable a --depth 3")).unwrap();
        assert_eq!(args.all("--disable").collect::<Vec<_>>(), ["b", "a"]);
        assert!(args.has("--dot"));
        assert_eq!(args.num::<u32>("--depth"), Ok(Some(3)));
        assert_eq!(args.input, None);
        let last = parse(FLAGS, "", &words("--depth 3 --depth 5")).unwrap();
        assert_eq!(last.get("--depth"), Some("5"));
        let bad = parse(FLAGS, "", &words("--depth 15O")).unwrap();
        assert_eq!(
            bad.num::<u32>("--depth"),
            Err("--depth needs a number, got `15O`".into())
        );
    }

    #[test]
    fn one_input_at_most() {
        let args = parse(FLAGS, "<in.json>", &words("--dot in.json")).unwrap();
        assert_eq!(args.input.as_deref(), Some("in.json"));
        let second = parse(FLAGS, "<in.json>", &words("a.json --dot b.json"));
        assert_eq!(second, Err("more than one input given: <in.json>".into()));
        let optional = parse(FLAGS, "[<in.json>]", &words("a.json b.json"));
        assert_eq!(
            optional,
            Err("more than one input given: [<in.json>]".into())
        );
        assert_eq!(
            parse(FLAGS, "<in.json>", &[]),
            Err("no <in.json> given".into())
        );
        assert_eq!(parse(FLAGS, "[<in.json>]", &[]), Ok(Args::default()));
    }

    #[test]
    fn a_positional_word_needs_a_declared_input() {
        let stray = parse(FLAGS, "", &words("--dot in.json"));
        assert_eq!(stray, Err("unexpected argument `in.json`".into()));
    }

    #[test]
    fn unknown_flags_and_missing_values_are_usage_problems() {
        let unknown = parse(FLAGS, "", &words("--dto"));
        assert_eq!(unknown, Err("unknown option `--dto`".into()));
        // A value never starts with `--`: that is the next flag.
        for line in ["--depth", "--depth --dot"] {
            let missing = parse(FLAGS, "", &words(line));
            assert_eq!(missing, Err("--depth requires <n>".into()), "{line}");
        }
    }

    #[test]
    fn an_optional_value_is_taken_when_one_follows() {
        let named = parse(FLAGS, "", &words("--example RA001 --dot")).unwrap();
        assert_eq!(named.get("--example"), Some("RA001"));
        assert!(named.has("--dot"));
        for line in ["--example", "--example --dot"] {
            let bare = parse(FLAGS, "", &words(line)).unwrap();
            assert_eq!(bare.get("--example"), Some(""), "{line}");
        }
    }
}

//! Table-driven argv parsing for the `perfpredict` verbs and the
//! reproduction harnesses. A command declares its positionals and flags
//! once, in a [`Spec`]; [`parse`] checks argv against it and its usage
//! line is rendered from it. Any misuse is [`Error::InvalidInput`]
//! (exit 2) naming the argument: an unknown flag, a value flag without
//! its value, a second use of a flag that does not repeat, an extra
//! positional or a missing required one.

use crate::{Error, Result};
use std::str::FromStr;
use telemetry::{ConsoleLevel, RunHandle, TelemetryConfig};

/// One row of a flag table.
#[derive(Debug, Clone, Copy)]
pub struct Flag {
    /// The flag as typed, e.g. `--step`.
    pub name: &'static str,
    /// Placeholder of its value (`N`, `F`); `None` for a switch.
    pub value: Option<&'static str>,
    /// Whether it may be given more than once.
    pub repeat: bool,
}

impl Flag {
    /// A flag that takes no value.
    pub const fn switch(name: &'static str) -> Flag {
        Flag {
            name,
            value: None,
            repeat: false,
        }
    }

    /// A flag followed by one value, shown as `placeholder`.
    pub const fn value(name: &'static str, placeholder: &'static str) -> Flag {
        Flag {
            value: Some(placeholder),
            ..Flag::switch(name)
        }
    }

    /// This flag, allowed more than once.
    pub const fn repeat(self) -> Flag {
        Flag {
            repeat: true,
            ..self
        }
    }
}

/// The observability flags of every verb and harness, applied by
/// [`Args::telemetry`].
pub const OBSERVE: &[Flag] = &[
    Flag::switch("--trace"),
    Flag::switch("--profile"),
    Flag::value("--metrics-out", "F"),
];

/// A command's table.
#[derive(Debug, Clone, Copy)]
pub struct Spec<'a> {
    /// The command and its positionals: `<x>` is required, `[x]` optional.
    pub usage: &'a str,
    /// One-line description for the usage text.
    pub about: &'a str,
    /// Flag groups; a group such as [`OBSERVE`] serves many tables.
    pub flags: &'a [&'static [Flag]],
}

impl Spec<'_> {
    /// [`Spec::usage`] and every flag not in `skip`, e.g.
    /// `sweep <benchmark> [--step N] [--json]`.
    pub fn synopsis(&self, skip: &[Flag]) -> String {
        let mut line = self.usage.to_string();
        for f in self.flags.iter().copied().flatten() {
            if skip.iter().all(|s| s.name != f.name) {
                let value = f.value.map(|v| format!(" {v}")).unwrap_or_default();
                let more = if f.repeat { "..." } else { "" };
                line.push_str(&format!(" [{}{value}]{more}", f.name));
            }
        }
        line
    }
}

/// An argv that [`parse`] accepted.
#[derive(Debug, Clone)]
pub struct Args {
    positionals: Vec<String>,
    given: Vec<(&'static str, Option<String>)>,
    table: Vec<Flag>,
}

/// Check `argv`, the arguments after the command, against `spec`.
pub fn parse(spec: &Spec<'_>, argv: &[String]) -> Result<Args> {
    let misuse = |what: String| Error::invalid(format!("{what}\nusage: {}", spec.synopsis(&[])));
    let slots: Vec<&str> = spec.usage.split_whitespace().skip(1).collect();
    let mut args = Args {
        positionals: Vec::new(),
        given: Vec::new(),
        table: spec.flags.concat(),
    };
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        if !arg.starts_with('-') {
            if args.positionals.len() == slots.len() {
                return Err(misuse(format!("unexpected argument '{arg}'")));
            }
            args.positionals.push(arg.clone());
            continue;
        }
        let Some(flag) = args.table.iter().find(|f| f.name == arg).copied() else {
            return Err(misuse(format!("unknown flag '{arg}'")));
        };
        if !flag.repeat && args.has(flag.name) {
            return Err(misuse(format!("{arg} given more than once")));
        }
        let value = match flag.value.map(|_| it.next()) {
            None => None,
            Some(Some(v)) if !v.starts_with("--") => Some(v.clone()),
            Some(_) => return Err(misuse(format!("{arg} requires a value"))),
        };
        args.given.push((flag.name, value));
    }
    // Required positionals come first, so only the next slot can be one.
    if let Some(slot) = slots
        .get(args.positionals.len())
        .filter(|s| s.starts_with('<'))
    {
        let name = slot.trim_matches(['<', '>']);
        return Err(misuse(format!("missing {name} argument")));
    }
    Ok(args)
}

impl Args {
    /// The `i`-th positional, if given.
    pub fn positional(&self, i: usize) -> Option<&str> {
        self.positionals.get(i).map(String::as_str)
    }

    /// Whether `flag` was given (a switch is on).
    pub fn has(&self, flag: &str) -> bool {
        self.given.iter().any(|(name, _)| *name == flag)
    }

    /// Every value given for `flag`, in order.
    pub fn values(&self, flag: &str) -> Vec<&str> {
        let given = self.given.iter().filter(|(name, _)| *name == flag);
        given.filter_map(|(_, v)| v.as_deref()).collect()
    }

    /// The value of `flag`, if given. A flag's default is its caller's
    /// `unwrap_or`.
    pub fn value(&self, flag: &str) -> Option<&str> {
        self.values(flag).first().copied()
    }

    /// The value of `flag` as a number, if given.
    pub fn num<T: FromStr>(&self, flag: &str) -> Result<Option<T>> {
        self.value(flag)
            .map(|v| {
                v.parse()
                    .map_err(|_| Error::invalid(format!("{flag} expects a number, got '{v}'")))
            })
            .transpose()
    }

    /// `cfg` with the [`OBSERVE`] flags applied: `--trace` raises the
    /// console to debug, `--profile` turns on the span profiler and
    /// `--metrics-out` adds the manifest sink.
    pub fn telemetry(&self, mut cfg: TelemetryConfig) -> TelemetryConfig {
        if self.has("--trace") {
            cfg = cfg.console(ConsoleLevel::Debug);
        }
        if let Some(path) = self.value("--metrics-out") {
            cfg = cfg.jsonl(path);
        }
        cfg.profile(self.has("--profile"))
    }
}

/// Install the telemetry run; a manifest that cannot be created is an
/// [`Error::Io`] on its path (exit 3).
pub fn install(cfg: TelemetryConfig) -> Result<RunHandle> {
    let path = cfg.jsonl_path.as_ref().map(|p| p.display().to_string());
    telemetry::install(cfg).map_err(|e| {
        let e = std::io::Error::other(format!("cannot open metrics file: {e}"));
        Error::io(path.unwrap_or_default(), e)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const SPEC: Spec<'static> = Spec {
        usage: "sweep <benchmark>",
        about: "sweep a design space",
        flags: &[
            &[
                Flag::value("--step", "N"),
                Flag::value("--shards", "N"),
                Flag::value("--preload", "NAME=PATH").repeat(),
                Flag::switch("--json"),
            ],
            OBSERVE,
        ],
    };

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    fn reject(line: &str) -> String {
        match parse(&SPEC, &argv(line)) {
            Err(e @ Error::InvalidInput { .. }) => e.to_string(),
            other => panic!("{line}: expected InvalidInput, got {other:?}"),
        }
    }

    #[test]
    fn accepts_the_table() {
        let a = parse(&SPEC, &argv("mcf --json --shards 2 --trace")).expect("valid argv");
        assert_eq!(a.positional(0), Some("mcf"));
        assert_eq!(a.positional(1), None);
        assert_eq!(a.num::<usize>("--step").expect("absent"), None);
        assert!(!a.has("--step"));
        assert_eq!(a.num::<usize>("--shards").expect("number"), Some(2));
        assert!(a.has("--json") && a.has("--trace") && !a.has("--profile"));
        assert_eq!(a.value("--metrics-out"), None);
    }

    #[test]
    fn repeatable_flags_keep_their_order() {
        let a = parse(&SPEC, &argv("x --preload a=1 --preload b=2")).expect("valid argv");
        assert_eq!(a.values("--preload"), ["a=1", "b=2"]);
    }

    #[test]
    fn every_misuse_is_invalid_input_naming_the_argument() {
        assert!(reject("mcf --bogus").contains("unknown flag '--bogus'"));
        assert!(reject("mcf --step").contains("--step requires a value"));
        assert!(reject("mcf --step --json").contains("--step requires a value"));
        assert!(reject("mcf --step 4 --step 8").contains("--step given more than once"));
        assert!(reject("mcf gcc").contains("unexpected argument 'gcc'"));
        assert!(reject("--json").contains("missing benchmark argument"));
        assert!(reject("mcf -x").contains("usage: sweep <benchmark> [--step N]"));
    }

    #[test]
    fn numbers_are_checked_when_read() {
        let a = parse(&SPEC, &argv("mcf --shards two")).expect("valid argv");
        let e = a.num::<usize>("--shards").expect_err("not a number");
        let text = e.to_string();
        assert!(
            text.contains("--shards expects a number, got 'two'"),
            "{text}"
        );
    }

    #[test]
    fn synopsis_comes_from_the_table() {
        let s = SPEC.synopsis(OBSERVE);
        assert_eq!(
            s,
            "sweep <benchmark> [--step N] [--shards N] [--preload NAME=PATH]... [--json]"
        );
    }

    #[test]
    fn observe_flags_configure_telemetry() {
        let line = "mcf --trace --profile --metrics-out m.jsonl";
        let cfg = parse(&SPEC, &argv(line))
            .expect("valid argv")
            .telemetry(TelemetryConfig::new("t"));
        assert!(cfg.console == ConsoleLevel::Debug && cfg.profile);
        let path = cfg.jsonl_path.expect("manifest path");
        assert_eq!(path, std::path::Path::new("m.jsonl"));
    }
}

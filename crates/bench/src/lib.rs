//! Shared plumbing for the reproduction harnesses (`repro_*` binaries) and
//! the Criterion benchmarks.
//!
//! Every harness accepts a common `--scale` knob so the paper's experiments
//! can be regenerated at full fidelity (hours of simulation) or smoke-tested
//! in seconds:
//!
//! * `--scale full`   — the paper's setup: all 4608 configurations,
//!   100 000-instruction intervals.
//! * `--scale medium` — every 4th configuration (1152), 60 000 instructions.
//! * `--scale quick`  — every 16th configuration (288), 30 000 instructions
//!   (default for smoke runs).
//!
//! Every harness also understands the observability flags
//! ([`fault::args::OBSERVE`]): `--trace` for verbose span logging on
//! stderr, `--profile` for a span-tree hot-path table, and
//! `--metrics-out <path>` for a JSON-lines run manifest.
//!
//! A harness starts with [`banner`]: it checks argv against one table
//! (`--scale`, `--seed`, the harness's own flags and the observability
//! flags; anything else is an invalid-input error, exit 2), prints the
//! header, installs the telemetry run and returns a [`RunGuard`] that
//! prints a one-line wall-time/counter summary (with latency-histogram
//! tails) when the harness finishes. Harness bodies return
//! [`fault::Result`]; [`exit_status`] turns an error into the same exit
//! status the `perfpredict` CLI uses.

use cpusim::runner::SimOptions;
use cpusim::DesignSpace;
use fault::args::{self, Args, Flag, Spec, OBSERVE};
use std::process::ExitCode;
use telemetry::TelemetryConfig;

/// Experiment scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Paper-fidelity: full lattice, long intervals.
    Full,
    /// Quarter lattice, medium intervals.
    Medium,
    /// Sixteenth lattice, short intervals.
    Quick,
}

impl Scale {
    /// Parse from a CLI string.
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "full" => Some(Scale::Full),
            "medium" => Some(Scale::Medium),
            "quick" => Some(Scale::Quick),
            _ => None,
        }
    }

    /// The design space at this scale.
    pub fn space(self) -> DesignSpace {
        let full = DesignSpace::table1();
        let step = match self {
            Scale::Full => 1,
            Scale::Medium => 4,
            Scale::Quick => 16,
        };
        if step == 1 {
            full
        } else {
            DesignSpace::from_configs(full.configs().iter().copied().step_by(step).collect())
        }
    }

    /// Simulator options at this scale.
    pub fn sim_options(self) -> SimOptions {
        let instructions = match self {
            Scale::Full => 100_000,
            Scale::Medium => 60_000,
            Scale::Quick => 30_000,
        };
        SimOptions {
            instructions,
            ..Default::default()
        }
    }
}

/// Flags every harness accepts besides its own and [`OBSERVE`].
const COMMON: &[Flag] = &[
    Flag::value("--scale", "full|medium|quick"),
    Flag::value("--seed", "N"),
];

/// Check `argv` for harness `name` against `--scale`, `--seed`, `extra`
/// and [`OBSERVE`]. Returns the scale (default quick, so casual runs stay
/// fast), the seed, and the parsed arguments.
fn parse_common_args(
    name: &str,
    extra: &'static [Flag],
    argv: &[String],
) -> fault::Result<(Scale, u64, Args)> {
    let spec = Spec {
        usage: name,
        about: "",
        flags: &[COMMON, extra, OBSERVE],
    };
    let args = args::parse(&spec, argv)?;
    let v = args.value("--scale").unwrap_or("quick");
    let scale = Scale::parse(v)
        .ok_or_else(|| fault::Error::invalid(format!("unknown scale '{v}' (full|medium|quick)")))?;
    let seed = args.num("--seed")?.unwrap_or(42);
    Ok((scale, seed, args))
}

/// The process exit status for a harness result, mapped the way the
/// `perfpredict` CLI maps errors: success, or the error printed to
/// stderr and [`fault::Error::exit_code`]. A harness `main` is
/// `fn main() -> ExitCode { bench::exit_status(run()) }`, where `run`
/// holds the [`RunGuard`], so the run summary prints first.
pub fn exit_status(result: fault::Result<()>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(u8::try_from(e.exit_code()).unwrap_or(1))
        }
    }
}

/// Ends a harness run: on drop, tears the telemetry run down and prints
/// the one-line wall-time/counter summary.
#[must_use = "bind the guard so the run summary prints when main ends"]
pub struct RunGuard {
    handle: Option<telemetry::RunHandle>,
    /// The harness's parsed arguments, for its own flags.
    pub args: Args,
}

impl Drop for RunGuard {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            let summary = handle.finish();
            println!("\n{}", summary.one_line());
            if !summary.profile.is_empty() {
                print!("{}", telemetry::profile::render_table(&summary.profile));
            }
        }
    }
}

/// Start a harness run: check the process argv with
/// `parse_common_args`, print the banner header, and install the
/// telemetry run — console verbosity from `PERFPREDICT_LOG` or `--trace`,
/// a JSON-lines manifest when `--metrics-out <path>` is given (an I/O
/// error, exit 3, if it cannot be created). Returns the scale, the seed
/// and the [`RunGuard`] that finishes the run.
pub fn banner(title: &str, extra: &'static [Flag]) -> fault::Result<(Scale, u64, RunGuard)> {
    let name = std::env::current_exe()
        .ok()
        .and_then(|p| Some(p.file_name()?.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (scale, seed, args) = parse_common_args(&name, extra, &argv)?;
    println!("perfpredict reproduction — {title}");
    println!("scale: {scale:?} (use --scale full for the paper-fidelity run)\n");

    let cfg = args.telemetry(
        TelemetryConfig::new(name)
            .meta("title", title)
            .meta("scale", format!("{scale:?}"))
            .meta("args", argv.join(" ")),
    );
    let handle = Some(args::install(cfg)?);
    Ok((scale, seed, RunGuard { handle, args }))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scales_parse() {
        assert_eq!(Scale::parse("full"), Some(Scale::Full));
        assert_eq!(Scale::parse("medium"), Some(Scale::Medium));
        assert_eq!(Scale::parse("quick"), Some(Scale::Quick));
        assert_eq!(Scale::parse("nope"), None);
    }

    #[test]
    fn space_sizes_scale_down() {
        assert_eq!(Scale::Full.space().len(), 4608);
        assert_eq!(Scale::Medium.space().len(), 1152);
        assert_eq!(Scale::Quick.space().len(), 288);
    }

    #[test]
    fn sim_options_scale_instructions() {
        assert!(Scale::Full.sim_options().instructions > Scale::Quick.sim_options().instructions);
    }

    fn argv(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn harness_args_default_to_quick_and_reject_misuse() {
        let (scale, seed, _) = parse_common_args("h", &[], &[]).expect("empty argv");
        assert_eq!((scale, seed), (Scale::Quick, 42));
        const ALL: &[Flag] = &[Flag::switch("--all")];
        let (scale, seed, args) =
            parse_common_args("h", ALL, &argv("--all --scale full --seed 7 --trace"))
                .expect("valid argv");
        assert_eq!((scale, seed), (Scale::Full, 7));
        assert!(args.has("--all") && args.has("--trace"));
        for bad in [
            "--scael full",
            "--scale",
            "--scale huge",
            "--seed x",
            "--all",
        ] {
            let e = parse_common_args("h", &[], &argv(bad)).expect_err(bad);
            assert_eq!(e.exit_code(), 2, "{bad}: {e}");
        }
    }
}

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
//! Every harness also understands the observability flags: `--trace` for
//! verbose span logging on stderr, `--profile` for a span-tree hot-path
//! table, and `--metrics-out <path>` for a JSON-lines run manifest.
//! [`banner`] installs the telemetry run and returns a [`RunGuard`] that
//! prints a one-line wall-time/counter summary (with latency-histogram
//! tails) when the harness finishes.
//!
//! Harness bodies return [`fault::Result`]; [`exit_status`] turns an
//! error into the same exit status the `perfpredict` CLI uses.

use cpusim::runner::SimOptions;
use cpusim::DesignSpace;
use std::process::ExitCode;
use telemetry::{ConsoleLevel, TelemetryConfig};

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

/// Parse `--scale <value>` (and `--seed <n>`) from argv; defaults to
/// `Quick` so casual runs stay fast. Returns (scale, seed, leftover args).
/// The observability flags (`--trace`, `--metrics-out <path>`) are consumed
/// here too so they never leak into the leftovers; [`banner`] re-reads them
/// from argv when installing telemetry.
pub fn parse_common_args() -> (Scale, u64, Vec<String>) {
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut rest = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--scale" => {
                let v = args.next().expect("--scale needs a value");
                scale = Scale::parse(&v)
                    .unwrap_or_else(|| panic!("unknown scale '{v}' (full|medium|quick)"));
            }
            "--seed" => {
                seed = args
                    .next()
                    .expect("--seed needs a value")
                    .parse()
                    .expect("--seed must be an integer");
            }
            "--trace" | "--profile" => {}
            "--metrics-out" => {
                let _ = args.next().expect("--metrics-out needs a path");
            }
            other => rest.push(other.to_string()),
        }
    }
    (scale, seed, rest)
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

/// Banner header for every harness. Also installs the telemetry run for
/// the process — console verbosity from `PERFPREDICT_LOG` or `--trace`, a
/// JSON-lines manifest when `--metrics-out <path>` is given — and returns
/// the [`RunGuard`] that finishes it.
pub fn banner(title: &str, scale: Scale) -> RunGuard {
    println!("perfpredict reproduction — {title}");
    println!("scale: {scale:?} (use --scale full for the paper-fidelity run)\n");

    let label = std::env::current_exe()
        .ok()
        .and_then(|p| p.file_name().map(|n| n.to_string_lossy().into_owned()))
        .unwrap_or_else(|| "bench".to_string());
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cfg = TelemetryConfig::new(label)
        .meta("title", title)
        .meta("scale", format!("{scale:?}"))
        .meta("args", args.join(" "));
    if args.iter().any(|a| a == "--trace") {
        cfg = cfg.console(ConsoleLevel::Debug);
    }
    if args.iter().any(|a| a == "--profile") {
        cfg = cfg.profile(true);
    }
    if let Some(i) = args.iter().position(|a| a == "--metrics-out") {
        if let Some(path) = args.get(i + 1) {
            cfg = cfg.jsonl(path);
        }
    }
    let handle = match telemetry::install(cfg) {
        Ok(h) => Some(h),
        Err(e) => {
            eprintln!("cannot open metrics file: {e}");
            std::process::exit(2);
        }
    };
    RunGuard { handle }
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
}

//! The `perfpredict` and harness command lines that the repository's
//! documentation, CI and scripts show, split into argv without running
//! them. Shared by `tests/cli.rs` (the `perfpredict` lines) and
//! `crates/bench/tests/harness_args.rs` (the harness lines).

/// Split a shell line into words: whitespace-separated, quotes removed.
fn words(line: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut word = String::new();
    let mut quote = None;
    for c in line.chars() {
        match (quote, c) {
            (Some(q), c) if c == q => quote = None,
            (Some(_), c) => word.push(c),
            (None, '"' | '\'') => quote = Some(c),
            (None, c) if c.is_whitespace() => {
                if !word.is_empty() {
                    out.push(std::mem::take(&mut word));
                }
            }
            (None, c) => word.push(c),
        }
    }
    if !word.is_empty() {
        out.push(word);
    }
    out
}

pub fn is_harness(name: &str) -> bool {
    name.starts_with("repro_") || name.starts_with("ablation_") || name == "soak_serve"
}

/// The program a shell line runs and its arguments, up to the first
/// redirection, pipe, list operator or comment; `None` if the line runs
/// neither `perfpredict` nor a harness.
fn invocation(line: &str) -> Option<(String, Vec<String>)> {
    let w = words(line);
    let (program, rest) = (0..w.len()).find_map(|i| {
        let after = |k: usize| w[(i + k).min(w.len())..].to_vec();
        let tail = w[i].rsplit('/').next().unwrap_or_default();
        if w[i].ends_with("release/perfpredict") {
            Some(("perfpredict".to_string(), after(1)))
        } else if w[i].contains("release/") && is_harness(tail) {
            Some((tail.to_string(), after(1)))
        } else if w[i] == "run" && w.get(i + 1).is_some_and(|n| is_harness(n)) {
            Some((w[i + 1].clone(), after(2)))
        } else if w[i] == "cargo" && w.get(i + 1).is_some_and(|r| r == "run") {
            let dash = w[i..].iter().position(|t| t == "--").map(|d| i + d);
            let opts = &w[i..dash.unwrap_or(w.len())];
            let args = dash.map(|d| w[d + 1..].to_vec()).unwrap_or_default();
            match opts.iter().position(|t| t == "--bin") {
                Some(b) => opts
                    .get(b + 1)
                    .filter(|n| is_harness(n))
                    .map(|n| (n.clone(), args)),
                None if opts.iter().any(|t| t == "-p" || t == "--example") => None,
                None => dash.map(|_| ("perfpredict".to_string(), args)),
            }
        } else {
            None
        }
    })?;
    let end = rest
        .iter()
        .position(|t| {
            t.starts_with(['#', '>', '<', '|', '&', ';']) || t.starts_with("2>") || t.ends_with(';')
        })
        .unwrap_or(rest.len());
    let argv = rest[..end]
        .iter()
        .map(|t| {
            if t == "$SCALE" {
                "full".to_string()
            } else {
                t.clone()
            }
        })
        .collect();
    Some((program, argv))
}

/// Every `perfpredict` and harness command line in the documentation,
/// CI and run scripts under the repository `root`, plus the two that
/// perfbench spawns, as `(where, program, argv)`. Markdown files
/// contribute their fenced code blocks only.
pub fn documented(root: &str) -> Vec<(String, String, Vec<String>)> {
    let mut found = Vec::new();
    for file in [
        "README.md",
        "EXPERIMENTS.md",
        ".claude/skills/verify/SKILL.md",
        ".github/workflows/ci.yml",
        "run_experiments.sh",
    ] {
        let text = std::fs::read_to_string(format!("{root}/{file}")).expect(file);
        let mut fenced = !file.ends_with(".md");
        for line in text.replace("\\\n", " ").lines() {
            if line.trim_start().starts_with("```") {
                fenced = !fenced;
            } else if fenced {
                if let Some((program, argv)) = invocation(line) {
                    found.push((format!("{file}: {}", line.trim()), program, argv));
                }
            }
        }
    }
    // crates/bench/examples/perfbench/src/serve.rs builds these two
    // command lines in `Daemon::spawn` and `Kit::replay`.
    for line in [
        "serve --daemon --json --workers 2 --preload nne=nne.ppmodel --preload lrb=lrb.ppmodel --socket d.sock",
        "serve nne.ppmodel --input cold.jsonl --workers 2 --json",
    ] {
        found.push((format!("perfbench: {line}"), "perfpredict".into(), words(line)));
    }
    found
}

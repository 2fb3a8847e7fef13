//! Seeded request-workload generation.
//!
//! The smoke tests and throughput benchmarks need realistic replay
//! files without shipping one: [`generate_requests`] samples the
//! artifact's [`TableSchema`] — numeric columns draw from their
//! observed training lattice, flags flip a coin, categoricals pick a
//! training level — and shapes cache behaviour with a `distinct` pool:
//! requests are drawn (with reuse) from `distinct` pre-sampled
//! configurations, so `distinct ≪ n` produces the cache-heavy replay a
//! design-space exploration actually generates.

use fault::{Error, Result};
use mlmodels::artifact::{ColumnSchema, TableSchema};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use telemetry::json::{self, JsonObject};

fn sample_config(schema: &TableSchema, rng: &mut StdRng) -> Result<String> {
    let mut obj = JsonObject::new();
    for col in &schema.columns {
        match col {
            ColumnSchema::Numeric { name, observed } => {
                if observed.is_empty() {
                    return Err(Error::invalid(format!(
                        "cannot generate requests: numeric column '{name}' has no observed values"
                    )));
                }
                let v = observed[rng.random_range(0..observed.len())];
                obj = obj.raw(name, &json::number(v));
            }
            ColumnSchema::Flag { name } => {
                obj = obj.bool(name, rng.random::<bool>());
            }
            ColumnSchema::Categorical { name, levels } => {
                if levels.is_empty() {
                    return Err(Error::invalid(format!(
                        "cannot generate requests: categorical column '{name}' has no levels"
                    )));
                }
                obj = obj.str(name, &levels[rng.random_range(0..levels.len())]);
            }
        }
    }
    Ok(obj.finish())
}

/// Generate `n` JSONL request lines drawn (with reuse) from a pool of
/// `distinct` sampled configurations. Deterministic per
/// `(schema, n, distinct, seed)`. Each line carries `"id":"g<i>"`.
pub fn generate_requests(
    schema: &TableSchema,
    n: usize,
    distinct: usize,
    seed: u64,
) -> Result<String> {
    if n == 0 {
        return Err(Error::invalid("request count must be at least 1"));
    }
    if distinct == 0 {
        return Err(Error::invalid("distinct-config pool must be at least 1"));
    }
    if schema.columns.is_empty() {
        return Err(Error::invalid(
            "cannot generate requests for an empty schema",
        ));
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let pool: Vec<String> = (0..distinct)
        .map(|_| sample_config(schema, &mut rng))
        .collect::<Result<_>>()?;
    let mut out = String::new();
    for i in 0..n {
        let body = &pool[rng.random_range(0..pool.len())];
        // Splice the id into the sampled object: `{"id":"g<i>",` + rest.
        let rest = body
            .strip_prefix('{')
            .ok_or_else(|| Error::invalid("generated config is not an object"))?;
        out.push_str(&format!("{{\"id\":\"g{i}\",{rest}\n"));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::{serve_jsonl, ServeConfig};
    use mlmodels::{try_train, ModelArtifact, ModelKind, Table};

    fn schema() -> TableSchema {
        TableSchema {
            columns: vec![
                ColumnSchema::Numeric {
                    name: "speed".into(),
                    observed: vec![1000.0, 1200.0, 1400.0],
                },
                ColumnSchema::Flag { name: "smt".into() },
                ColumnSchema::Categorical {
                    name: "bpred".into(),
                    levels: vec!["perfect".into(), "gshare".into()],
                },
            ],
        }
    }

    #[test]
    fn generated_requests_parse_against_the_schema() {
        let s = schema();
        let text = generate_requests(&s, 50, 7, 3).expect("generate");
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 50);
        for (i, l) in lines.iter().enumerate() {
            let r = crate::request::parse_request_line(&s, l, i as u64 + 1).expect(l);
            assert_eq!(r.id, format!("g{i}"));
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let s = schema();
        assert_eq!(
            generate_requests(&s, 30, 5, 9).expect("a"),
            generate_requests(&s, 30, 5, 9).expect("b")
        );
        assert_ne!(
            generate_requests(&s, 30, 5, 9).expect("a"),
            generate_requests(&s, 30, 5, 10).expect("c")
        );
    }

    #[test]
    fn degenerate_parameters_are_typed_errors() {
        let s = schema();
        assert_eq!(
            generate_requests(&s, 0, 5, 1).expect_err("n").kind(),
            "invalid"
        );
        assert_eq!(
            generate_requests(&s, 5, 0, 1).expect_err("distinct").kind(),
            "invalid"
        );
        let empty = TableSchema { columns: vec![] };
        assert_eq!(
            generate_requests(&empty, 5, 5, 1)
                .expect_err("empty")
                .kind(),
            "invalid"
        );
    }

    #[test]
    fn generated_workload_replays_end_to_end() {
        let n = 60;
        let speeds: Vec<f64> = (0..n).map(|i| 1000.0 + (i % 5) as f64 * 100.0).collect();
        let smt: Vec<bool> = (0..n).map(|i| i % 2 == 0).collect();
        let y: Vec<f64> = (0..n)
            .map(|i| 0.01 * speeds[i] + if smt[i] { 1.0 } else { 0.0 })
            .collect();
        let mut t = Table::new();
        t.add_numeric("speed", speeds)
            .add_flag("smt", smt)
            .set_target(y);
        let art =
            ModelArtifact::from_training(try_train(ModelKind::LrE, &t, 1).expect("train"), &t);
        let input = generate_requests(&art.schema, 300, 6, 4).expect("generate");
        let (out, stats) = serve_jsonl(art, ServeConfig::default(), &input).expect("serve");
        assert_eq!(out.lines().count(), 300);
        assert!(stats.cache_hits > 0, "{stats:?}");
    }
}

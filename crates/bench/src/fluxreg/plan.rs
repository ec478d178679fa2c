//! Declarative ablation plans.
//!
//! A plan is a JSON object:
//!
//! ```json
//! {
//!   "name": "smoke",
//!   "factors": { "sessions": [2, 16], "threads": [1, 4] },
//!   "fixed":   { "rounds": 2, "n_predictions": 32 },
//!   "seeds":   [0],
//!   "gates":   { "mean_error": { "abs": 1e-9, "rel": 0.0, "direction": "lower" } }
//! }
//! ```
//!
//! `factors` are cartesian-expanded in sorted key order; each assignment
//! is run once per seed. Parameter names are validated against the
//! runner's vocabulary ([`KNOWN_PARAMS`]) so a typo fails the plan, not
//! the comparison. Gates are per-KPI tolerances (see [`Gate`]); they are
//! deliberately excluded from the [`plan_hash`], so tightening a bound
//! keeps the plan's registry history attached.

use std::collections::BTreeMap;

use serde_json::Value;

/// Parameter names the runner understands, with their defaults.
///
/// * `sessions` — concurrent tracking sessions (grid sinks).
/// * `threads` — recorded in each row but inert: a round runs on the
///   drain worker that claims its session, so `shards` alone sets a
///   job's parallelism. Existing plans and their baselines name it.
/// * `shards` — grid shard count: a drain runs `min(shards, sessions)`
///   workers.
/// * `rounds` — observation rounds per session.
/// * `users` — tracked users per session (the paper's K).
/// * `n_predictions` — SMC candidate predictions per user (the paper's N).
/// * `keep_m` — SMC samples kept per user per round.
/// * `noise_sigma` — relative Gaussian observation noise (0 = exact).
/// * `sniffers` — compromised-node count.
/// * `reps` — timed repetitions per job (minimum wall time is reported).
/// * `warm` — nonzero enables warm-started solving (posterior-seeded
///   shrunk candidate search with periodic escape sweeps; 0 = cold).
/// * `hibernate_after` — grid idle threshold in drains before a resident
///   session is hibernated (0 = hibernation off).
/// * `active_pct` — percentage of rounds each session actually receives
///   (duty cycling; 100 = every session sees every round). Sessions
///   rotate through the duty cycle so idle streaks form and hibernation
///   has something to evict.
/// * `serve` — nonzero drives the job through a loopback fluxd (one TCP
///   connection per session under credit-window flow control) instead
///   of an in-process grid; deterministic KPIs must not move, and
///   `p99_latency_ms` / `backpressure_stall_ms` are recorded.
pub const KNOWN_PARAMS: &[(&str, f64)] = &[
    ("sessions", 1.0),
    ("threads", 1.0),
    ("shards", 1.0),
    ("rounds", 3.0),
    ("users", 1.0),
    ("n_predictions", 64.0),
    ("keep_m", 8.0),
    ("noise_sigma", 0.0),
    ("sniffers", 24.0),
    ("reps", 1.0),
    ("warm", 0.0),
    ("hibernate_after", 0.0),
    ("active_pct", 100.0),
    ("serve", 0.0),
];

/// Which direction of KPI movement counts as a regression.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Direction {
    /// Lower is better (errors, wall times): regression when the current
    /// value exceeds baseline + tolerance.
    Lower,
    /// Higher is better (throughput): regression when the current value
    /// falls below baseline − tolerance.
    Higher,
    /// Any drift beyond tolerance is a regression (determinism pins).
    Both,
}

impl Direction {
    fn parse(text: &str) -> Result<Direction, String> {
        match text {
            "lower" => Ok(Direction::Lower),
            "higher" => Ok(Direction::Higher),
            "both" => Ok(Direction::Both),
            other => Err(format!(
                "gate direction must be \"lower\", \"higher\" or \"both\", got {other:?}"
            )),
        }
    }

    /// The name used in plan files and reports.
    pub fn name(self) -> &'static str {
        match self {
            Direction::Lower => "lower",
            Direction::Higher => "higher",
            Direction::Both => "both",
        }
    }
}

/// A per-KPI tolerance: the gated KPI may move *in the worse direction*
/// by at most `abs + rel·|baseline|`. Exactly-at-tolerance passes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Gate {
    /// Absolute slack (KPI units).
    pub abs: f64,
    /// Relative slack (fraction of the baseline's magnitude).
    pub rel: f64,
    /// Which drift direction regresses.
    pub direction: Direction,
}

impl Gate {
    /// The allowed worse-direction drift against a baseline value.
    pub fn tolerance(&self, baseline: f64) -> f64 {
        self.abs + self.rel * baseline.abs()
    }

    fn parse(value: &Value) -> Result<Gate, String> {
        let obj = value
            .as_object()
            .ok_or_else(|| format!("gate must be an object, got {}", value.kind()))?;
        let mut gate = Gate {
            abs: 1e-9,
            rel: 1e-3,
            direction: Direction::Both,
        };
        for (key, v) in obj {
            match key.as_str() {
                "abs" => {
                    gate.abs = v
                        .as_f64()
                        .filter(|a| a.is_finite() && *a >= 0.0)
                        .ok_or_else(|| format!("gate abs must be a finite number >= 0: {v}"))?;
                }
                "rel" => {
                    gate.rel = v
                        .as_f64()
                        .filter(|r| r.is_finite() && *r >= 0.0)
                        .ok_or_else(|| format!("gate rel must be a finite number >= 0: {v}"))?;
                }
                "direction" => {
                    let text = v
                        .as_str()
                        .ok_or_else(|| format!("gate direction must be a string: {v}"))?;
                    gate.direction = Direction::parse(text)?;
                }
                other => return Err(format!("unknown gate field {other:?}")),
            }
        }
        Ok(gate)
    }
}

/// One concrete job: a full parameter assignment plus the seed to run it
/// with. Defaults are filled in for parameters the plan leaves unset.
#[derive(Debug, Clone, PartialEq)]
pub struct Job {
    /// Parameter values by name (every [`KNOWN_PARAMS`] entry present).
    pub params: BTreeMap<String, f64>,
    /// RNG seed for this job.
    pub seed: u64,
}

impl Job {
    /// A parameter as `usize` (parameters are validated non-negative
    /// integers where the runner needs counts).
    pub fn count(&self, name: &str) -> usize {
        self.params.get(name).map_or(0.0, |v| *v) as usize
    }

    /// A parameter as `f64`.
    pub fn value(&self, name: &str) -> f64 {
        self.params.get(name).copied().unwrap_or(0.0)
    }
}

/// A parsed, validated ablation plan.
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// Plan identifier (groups registry rows and report sections).
    pub name: String,
    /// Swept parameters, each with its value list, in sorted name order.
    pub factors: BTreeMap<String, Vec<f64>>,
    /// Pinned parameters.
    pub fixed: BTreeMap<String, f64>,
    /// Seeds each factor assignment runs with.
    pub seeds: Vec<u64>,
    /// Per-KPI tolerance gates.
    pub gates: BTreeMap<String, Gate>,
    /// The stable identity hash (hex FNV-1a 64 of the canonical JSON
    /// with `gates` stripped).
    pub hash: String,
}

impl Plan {
    /// Parses and validates a plan from JSON text.
    ///
    /// # Errors
    ///
    /// Malformed JSON, unknown fields, unknown parameter names, a
    /// parameter both swept and fixed, empty factor lists, or an empty
    /// seed list.
    pub fn from_json(text: &str) -> Result<Plan, String> {
        let value: Value =
            serde_json::from_str(text).map_err(|e| format!("plan is not valid JSON: {e}"))?;
        let obj = value
            .as_object()
            .ok_or_else(|| format!("plan must be a JSON object, got {}", value.kind()))?;

        let mut name = None;
        let mut factors = BTreeMap::new();
        let mut fixed = BTreeMap::new();
        let mut seeds = vec![0u64];
        let mut gates = BTreeMap::new();
        for (key, v) in obj {
            match key.as_str() {
                "name" => {
                    let text = v
                        .as_str()
                        .ok_or_else(|| format!("plan name must be a string: {v}"))?;
                    if text.is_empty() {
                        return Err("plan name must be non-empty".to_string());
                    }
                    name = Some(text.to_string());
                }
                "factors" => {
                    for (param, values) in require_object(v, "factors")? {
                        check_param(param)?;
                        let list = values
                            .as_array()
                            .ok_or_else(|| format!("factor {param:?} must be an array: {values}"))?
                            .iter()
                            .map(|item| param_value(param, item))
                            .collect::<Result<Vec<f64>, String>>()?;
                        if list.is_empty() {
                            return Err(format!("factor {param:?} has an empty value list"));
                        }
                        factors.insert(param.clone(), list);
                    }
                }
                "fixed" => {
                    for (param, item) in require_object(v, "fixed")? {
                        check_param(param)?;
                        fixed.insert(param.clone(), param_value(param, item)?);
                    }
                }
                "seeds" => {
                    let list = v
                        .as_array()
                        .ok_or_else(|| format!("seeds must be an array: {v}"))?;
                    if list.is_empty() {
                        return Err("seeds must be non-empty".to_string());
                    }
                    seeds = list
                        .iter()
                        .map(|item| {
                            item.as_u64().ok_or_else(|| {
                                format!("seed must be a non-negative integer: {item}")
                            })
                        })
                        .collect::<Result<Vec<u64>, String>>()?;
                }
                "gates" => {
                    for (kpi, spec) in require_object(v, "gates")? {
                        gates.insert(kpi.clone(), Gate::parse(spec)?);
                    }
                }
                other => return Err(format!("unknown plan field {other:?}")),
            }
        }
        let name = name.ok_or_else(|| "plan is missing \"name\"".to_string())?;
        if let Some(param) = factors.keys().find(|k| fixed.contains_key(*k)) {
            return Err(format!("parameter {param:?} is both a factor and fixed"));
        }
        let hash = plan_hash(&value);
        Ok(Plan {
            name,
            factors,
            fixed,
            seeds,
            gates,
            hash,
        })
    }

    /// Expands the plan into concrete jobs: the cartesian product of the
    /// factor lists (factors in sorted name order, values in listed
    /// order), crossed with the seed list (seeds vary fastest), defaults
    /// filled for everything unset.
    pub fn jobs(&self) -> Vec<Job> {
        let mut base: BTreeMap<String, f64> = KNOWN_PARAMS
            .iter()
            .map(|&(k, v)| (k.to_string(), v))
            .collect();
        for (k, v) in &self.fixed {
            base.insert(k.clone(), *v);
        }
        let factor_names: Vec<&String> = self.factors.keys().collect();
        let mut assignments = vec![base];
        for name in factor_names {
            let values = &self.factors[name];
            assignments = assignments
                .into_iter()
                .flat_map(|assignment| {
                    values.iter().map(move |v| {
                        let mut next = assignment.clone();
                        next.insert(name.clone(), *v);
                        next
                    })
                })
                .collect();
        }
        assignments
            .into_iter()
            .flat_map(|params| {
                self.seeds.iter().map(move |&seed| Job {
                    params: params.clone(),
                    seed,
                })
            })
            .collect()
    }
}

fn require_object<'v>(value: &'v Value, field: &str) -> Result<&'v Vec<(String, Value)>, String> {
    value
        .as_object()
        .ok_or_else(|| format!("{field} must be an object, got {}", value.kind()))
}

fn check_param(name: &str) -> Result<(), String> {
    if KNOWN_PARAMS.iter().any(|(k, _)| *k == name) {
        Ok(())
    } else {
        let known: Vec<&str> = KNOWN_PARAMS.iter().map(|(k, _)| *k).collect();
        Err(format!(
            "unknown parameter {name:?}; known: {}",
            known.join(", ")
        ))
    }
}

fn param_value(param: &str, value: &Value) -> Result<f64, String> {
    let v = value
        .as_f64()
        .filter(|v| v.is_finite())
        .ok_or_else(|| format!("parameter {param:?} must be a finite number: {value}"))?;
    if v < 0.0 {
        return Err(format!("parameter {param:?} must be non-negative: {value}"));
    }
    // Counts must be integral; only noise_sigma is a genuine float knob.
    // fluxlint: allow(float-eq) — fract() != 0.0 is an exact integrality test, not a value comparison
    if param != "noise_sigma" && v.fract() != 0.0 {
        return Err(format!("parameter {param:?} must be an integer: {value}"));
    }
    Ok(v)
}

/// Serialises a JSON value canonically: object keys sorted, arrays in
/// order, the same scalar formatting as the workspace JSON writer. Two
/// plan files that differ only in field order canonicalise identically.
pub fn canonical_json(value: &Value) -> String {
    let mut out = String::new();
    write_canonical(value, &mut out);
    out
}

fn write_canonical(value: &Value, out: &mut String) {
    match value {
        Value::Array(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                write_canonical(item, out);
            }
            out.push(']');
        }
        Value::Object(pairs) => {
            let mut sorted: Vec<&(String, Value)> = pairs.iter().collect();
            sorted.sort_by(|a, b| a.0.cmp(&b.0));
            out.push('{');
            for (i, (key, v)) in sorted.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                out.push_str(&Value::String(key.clone()).to_json());
                out.push(':');
                write_canonical(v, out);
            }
            out.push('}');
        }
        scalar => out.push_str(&scalar.to_json()),
    }
}

/// FNV-1a 64-bit over a byte slice.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// The plan-identity hash: FNV-1a 64 (hex) of the canonical JSON with
/// the `gates` member removed. Field reordering and tolerance changes do
/// not move the hash; any change to the name, factors, fixed parameters
/// or seeds does.
pub fn plan_hash(plan: &Value) -> String {
    let stripped = match plan {
        Value::Object(pairs) => Value::Object(
            pairs
                .iter()
                .filter(|(k, _)| k != "gates")
                .cloned()
                .collect(),
        ),
        other => other.clone(),
    };
    format!("{:016x}", fnv1a64(canonical_json(&stripped).as_bytes()))
}

#[cfg(test)]
mod tests {
    use super::*;

    const PLAN: &str = r#"{
        "name": "t",
        "factors": { "threads": [1, 4], "sessions": [2] },
        "fixed": { "rounds": 2, "noise_sigma": 0.05 },
        "seeds": [0, 7],
        "gates": { "mean_error": { "abs": 0.001, "rel": 0.0, "direction": "lower" } }
    }"#;

    #[test]
    fn parses_and_expands_jobs_in_deterministic_order() {
        let plan = Plan::from_json(PLAN).unwrap();
        assert_eq!(plan.name, "t");
        let jobs = plan.jobs();
        // 2 factor assignments × 2 seeds; sessions sorts before threads.
        assert_eq!(jobs.len(), 4);
        assert_eq!(jobs[0].seed, 0);
        assert_eq!(jobs[1].seed, 7);
        assert_eq!(jobs[0].count("threads"), 1);
        assert_eq!(jobs[2].count("threads"), 4);
        for job in &jobs {
            assert_eq!(job.count("sessions"), 2);
            assert_eq!(job.count("rounds"), 2);
            assert_eq!(job.value("noise_sigma"), 0.05);
            // Defaults fill the rest.
            assert_eq!(job.count("n_predictions"), 64);
        }
    }

    #[test]
    fn unknown_fields_and_params_are_rejected() {
        assert!(Plan::from_json("{\"name\":\"x\",\"bogus\":1}").is_err());
        assert!(Plan::from_json("{\"name\":\"x\",\"factors\":{\"warp\":[1]}}").is_err());
        assert!(Plan::from_json("{\"factors\":{}}").is_err(), "missing name");
        assert!(
            Plan::from_json(
                "{\"name\":\"x\",\"factors\":{\"threads\":[1]},\"fixed\":{\"threads\":2}}"
            )
            .is_err(),
            "factor/fixed overlap"
        );
        assert!(
            Plan::from_json("{\"name\":\"x\",\"fixed\":{\"threads\":1.5}}").is_err(),
            "fractional count"
        );
    }

    #[test]
    fn seeds_span_the_whole_u64_range() {
        let plan =
            Plan::from_json(r#"{ "name": "x", "seeds": [0, 18446744073709551615] }"#).unwrap();
        assert_eq!(plan.seeds, vec![0, u64::MAX]);
        assert!(Plan::from_json(r#"{ "name": "x", "seeds": [-1] }"#).is_err());
        assert!(Plan::from_json(r#"{ "name": "x", "seeds": [18446744073709551616] }"#).is_err());
    }

    #[test]
    fn gate_defaults_and_direction_parse() {
        let plan = Plan::from_json(PLAN).unwrap();
        let gate = plan.gates["mean_error"];
        assert_eq!(gate.abs, 0.001);
        assert_eq!(gate.direction, Direction::Lower);
        let defaulted = Plan::from_json("{\"name\":\"x\",\"gates\":{\"k\":{}}}").unwrap();
        assert_eq!(defaulted.gates["k"].abs, 1e-9);
        assert_eq!(defaulted.gates["k"].rel, 1e-3);
        assert_eq!(defaulted.gates["k"].direction, Direction::Both);
        assert!(
            Plan::from_json("{\"name\":\"x\",\"gates\":{\"k\":{\"direction\":\"up\"}}}").is_err()
        );
    }

    #[test]
    fn canonical_json_sorts_keys_recursively() {
        let value: Value = serde_json::from_str("{\"b\":{\"y\":1,\"x\":[2,1]},\"a\":0}").unwrap();
        assert_eq!(
            canonical_json(&value),
            "{\"a\":0,\"b\":{\"x\":[2,1],\"y\":1}}"
        );
    }
}

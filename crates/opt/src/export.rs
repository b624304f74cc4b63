//! Front exporters: CSV and JSON, deterministic byte for byte (stable
//! column order, sorted metric union, shortest-roundtrip floats) — the
//! same conventions as `nd-sweep`'s exporters, so downstream plotting
//! code can treat fronts as just another result table.

use crate::optimizer::{FrontPoint, OptOutcome};
use nd_sweep::export::EXPORT_SCHEMA;
use nd_sweep::value::Value;
use std::collections::{BTreeMap, BTreeSet};

const FIXED_COLUMNS: [&str; 10] = [
    "protocol",
    "eta",
    "slot_us",
    "eta_b",
    "slot_us_b",
    "duty_cycle",
    "duty_cycle_b",
    "latency_s",
    "bound_s",
    "gap_frac",
];

/// Render all fronts as one CSV table: fixed columns, then the sorted
/// union of backend metrics.
pub fn to_csv(outcome: &OptOutcome) -> String {
    let metric_names: BTreeSet<&str> = outcome
        .fronts
        .iter()
        .flat_map(|f| f.front.iter())
        .flat_map(|p| p.metrics.keys().map(|s| s.as_str()))
        .collect();

    let mut out = format!("# {EXPORT_SCHEMA}\n");
    for (i, name) in FIXED_COLUMNS.iter().chain(metric_names.iter()).enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(name);
    }
    out.push('\n');

    for front in &outcome.fronts {
        for p in &front.front {
            out.push_str(&front.protocol);
            for v in [
                Some(p.eta),
                p.slot_us,
                p.eta_b,
                p.slot_us_b,
                Some(p.duty_cycle),
                p.duty_cycle_b,
                Some(p.latency_s),
                Some(p.bound_s),
                Some(p.gap_frac),
            ] {
                out.push(',');
                if let Some(x) = v {
                    out.push_str(&float_cell(x));
                }
            }
            for name in &metric_names {
                out.push(',');
                if let Some(x) = p.metrics.get(*name) {
                    out.push_str(&float_cell(*x));
                }
            }
            out.push('\n');
        }
    }
    out
}

/// Render the outcome as a self-describing JSON document.
pub fn to_json(outcome: &OptOutcome) -> String {
    to_value(outcome).to_json_pretty()
}

/// The outcome as the [`Value`] tree [`to_json`] renders: rendering it
/// gives the same bytes as re-rendering the parsed `to_json` output,
/// because floats print shortest-round-trip with their `.`, NaN prints
/// `null` either way and integers stay integers.
pub fn to_value(outcome: &OptOutcome) -> Value {
    let fronts: Vec<Value> = outcome
        .fronts
        .iter()
        .map(|f| {
            let mut t = BTreeMap::new();
            t.insert("protocol".to_string(), Value::Str(f.protocol.clone()));
            t.insert(
                "front".to_string(),
                Value::Array(f.front.iter().map(point_value).collect()),
            );
            t.insert("evaluated".to_string(), Value::Int(f.evaluated as i64));
            t.insert("executed".to_string(), Value::Int(f.executed as i64));
            t.insert("cache_hits".to_string(), Value::Int(f.cache_hits as i64));
            t.insert("errors".to_string(), Value::Int(f.errors as i64));
            t.insert(
                "censored".to_string(),
                Value::Table(
                    f.censored
                        .iter()
                        .map(|(k, v)| (k.to_string(), Value::Int(*v as i64)))
                        .collect(),
                ),
            );
            Value::Table(t)
        })
        .collect();

    let mut doc = BTreeMap::new();
    doc.insert("schema".to_string(), Value::Str(EXPORT_SCHEMA.to_string()));
    doc.insert("name".to_string(), Value::Str(outcome.name.clone()));
    doc.insert(
        "spec_hash".to_string(),
        Value::Str(outcome.spec_hash.clone()),
    );
    doc.insert("backend".to_string(), Value::Str(outcome.backend.clone()));
    doc.insert(
        "objective".to_string(),
        Value::Str(outcome.objective.clone()),
    );
    doc.insert(
        "latency_metric".to_string(),
        Value::Str(outcome.latency_metric.clone()),
    );
    doc.insert("fronts".to_string(), Value::Array(fronts));
    Value::Table(doc)
}

/// One front point as it appears in the JSON document.
pub fn point_value(p: &FrontPoint) -> Value {
    let opt = |x: Option<f64>| x.map_or(Value::Null, Value::Float);
    let mut t = BTreeMap::new();
    t.insert("eta".to_string(), Value::Float(p.eta));
    t.insert("slot_us".to_string(), opt(p.slot_us));
    t.insert("eta_b".to_string(), opt(p.eta_b));
    t.insert("slot_us_b".to_string(), opt(p.slot_us_b));
    t.insert("duty_cycle".to_string(), Value::Float(p.duty_cycle));
    t.insert("duty_cycle_b".to_string(), opt(p.duty_cycle_b));
    t.insert("latency_s".to_string(), Value::Float(p.latency_s));
    t.insert("bound_s".to_string(), Value::Float(p.bound_s));
    t.insert("gap_frac".to_string(), Value::Float(p.gap_frac));
    t.insert(
        "metrics".to_string(),
        Value::Table(
            p.metrics
                .iter()
                .map(|(k, v)| (k.clone(), Value::Float(*v)))
                .collect(),
        ),
    );
    Value::Table(t)
}

fn float_cell(f: f64) -> String {
    if f.is_nan() {
        "NaN".to_string()
    } else {
        format!("{f}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::optimizer::{run_opt, OptOptions};
    use crate::spec::OptSpec;
    use nd_sweep::value::parse_json;

    fn outcome() -> OptOutcome {
        let s = OptSpec::from_toml_str(
            "name = \"exp\"\nbackend = \"exact\"\nmetric = \"two-way\"\n\
             [opt]\nprotocols = [\"optimal\"]\nseeds_per_axis = 3\nrounds = 1\n",
        )
        .unwrap();
        run_opt(&s, &OptOptions::uncached()).unwrap()
    }

    #[test]
    fn csv_is_deterministic_with_fixed_prefix() {
        let out = outcome();
        let csv = to_csv(&out);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "# nd-export/v1");
        assert!(lines[1].starts_with(
            "protocol,eta,slot_us,eta_b,slot_us_b,duty_cycle,duty_cycle_b,latency_s,bound_s,gap_frac"
        ));
        assert_eq!(
            lines.len(),
            2 + out.fronts.iter().map(|f| f.front.len()).sum::<usize>()
        );
        assert_eq!(csv, to_csv(&out), "byte-identical re-render");
        // slotless protocol: slot_us column empty
        assert!(lines[2].starts_with("optimal-slotless,"));
    }

    #[test]
    fn json_is_valid_and_complete() {
        let out = outcome();
        let doc = parse_json(&to_json(&out)).unwrap();
        let t = doc.as_table().unwrap();
        assert_eq!(t["schema"].as_str(), Some(EXPORT_SCHEMA));
        assert_eq!(t["name"].as_str(), Some("exp"));
        assert_eq!(t["backend"].as_str(), Some("exact"));
        let fronts = t["fronts"].as_array().unwrap();
        assert_eq!(fronts.len(), 1);
        let f0 = fronts[0].as_table().unwrap();
        assert_eq!(f0["protocol"].as_str(), Some("optimal-slotless"));
        assert!(!f0["front"].as_array().unwrap().is_empty());
    }
}

//! The `BENCH_*.json` snapshots: one writer, one validator and one publish
//! step shared by the five `bench_snapshot` modes.
//!
//! Every snapshot has the same layout: a `schema` marker, a one-line
//! `config` object, one array with a line per measured point, and any
//! mode-specific one-line sections. [`validate`] picks a mode from the
//! `schema` marker, runs the checks every mode shares (config integers,
//! the row array and its numeric fields) and then that mode's own gates.

mod batch;
mod characterization;
mod hotpath;
mod synth;
mod telemetry;

use std::fmt;

use ambit_telemetry::json::{self, Json};

/// Every snapshot mode, in CLI order; the first is the default.
pub const MODES: [&Mode; 5] = [
    &telemetry::MODE,
    &batch::MODE,
    &hotpath::MODE,
    &characterization::MODE,
    &synth::MODE,
];

/// One snapshot mode: how it measures and what its snapshot must hold.
#[derive(Debug)]
pub struct Mode {
    /// CLI name; the default output file is `BENCH_<name>.json`.
    pub name: &'static str,
    /// The `schema` marker the snapshot carries.
    pub schema: &'static str,
    /// Keys `config` must carry as non-negative integers.
    config: &'static [&'static str],
    /// The array section with one row per measured point.
    rows: &'static str,
    /// Keys every row must carry as numbers.
    fields: &'static [&'static str],
    /// Row keys that name a row in error messages.
    tag: &'static [&'static str],
    /// The mode's own gates over the parsed document and its rows.
    gates: fn(&Json, &[Row<'_>], &mut Vec<String>),
    /// Measures, prints a table and renders the snapshot text.
    run: fn() -> Result<String, String>,
}

/// One row of a snapshot's array, with the label errors name it by.
#[derive(Debug)]
pub struct Row<'a> {
    /// `rows[i] (tag=value ...)`.
    pub at: String,
    /// The row itself.
    pub v: &'a Json,
}

/// A value the writer can emit; every number goes through
/// [`json::number`].
pub trait Field {
    /// The value as JSON text.
    fn render(&self) -> String;
}

impl Field for f64 {
    fn render(&self) -> String {
        json::number(*self)
    }
}

macro_rules! int_field {
    ($($t:ty),*) => {$(
        impl Field for $t {
            fn render(&self) -> String {
                json::number(*self as f64)
            }
        }
    )*};
}
int_field!(u32, u64, usize);

impl Field for bool {
    fn render(&self) -> String {
        self.to_string()
    }
}

impl Field for &str {
    fn render(&self) -> String {
        format!("\"{}\"", json::escape(self))
    }
}

/// A JSON object written on one line, keys in insertion order.
#[derive(Debug, Default)]
pub struct Line(String);

impl Line {
    /// Appends `"key": value`.
    pub fn put(mut self, key: &str, value: impl Field) -> Self {
        let sep = if self.0.is_empty() { "" } else { ", " };
        self.0 += &format!("{sep}\"{key}\": {}", value.render());
        self
    }
}

impl Field for Line {
    fn render(&self) -> String {
        format!("{{{}}}", self.0)
    }
}

/// Rows of an array section, one per line.
impl Field for Vec<Line> {
    fn render(&self) -> String {
        let rows: Vec<String> = self.iter().map(|r| format!("\n    {}", r.render())).collect();
        format!("[{}\n  ]", rows.join(","))
    }
}

/// A snapshot document: top-level sections one per line, in insertion
/// order.
#[derive(Debug)]
pub struct Doc(String);

impl Doc {
    /// Starts a document with its schema marker and config line.
    pub fn new(schema: &str, config: Line) -> Self {
        Doc(format!("{{\n  \"schema\": {}", schema.render())).put("config", config)
    }

    /// Appends a top-level section.
    pub fn put(mut self, key: &str, value: impl Field) -> Self {
        self.0 += &format!(",\n  \"{key}\": {}", value.render());
        self
    }
}

impl fmt::Display for Doc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{}\n}}", self.0)
    }
}

/// Validates snapshot text against the gates of the mode its `schema`
/// marker names. Returns that mode and its row count, or every violation.
///
/// # Errors
///
/// Human-readable violations: bad JSON, an unknown schema, a missing or
/// mistyped field, or a failed gate.
pub fn validate(text: &str) -> Result<(&'static Mode, usize), Vec<String>> {
    let doc = Json::parse(text).map_err(|e| vec![format!("not valid JSON: {e}")])?;
    let schema = doc.get("schema").and_then(Json::as_str);
    let mode = MODES
        .into_iter()
        .find(|m| Some(m.schema) == schema)
        .ok_or_else(|| {
            vec![format!("unknown \"schema\" marker {:?}", schema.unwrap_or_default())]
        })?;

    let mut errors = Vec::new();
    for key in mode.config {
        if doc.get("config").and_then(|c| c.get(key)).and_then(Json::as_u64).is_none() {
            errors.push(format!("config.{key} missing or not an integer"));
        }
    }
    let items = doc.get(mode.rows).and_then(Json::as_arr);
    match items {
        None => errors.push(format!("\"{}\" missing or not an array", mode.rows)),
        Some([]) => errors.push(format!("\"{}\" is empty", mode.rows)),
        Some(_) => {}
    }
    let rows: Vec<Row<'_>> = items
        .unwrap_or_default()
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let tag: Vec<String> = mode
                .tag
                .iter()
                .map(|k| match v.get(k) {
                    Some(Json::Str(s)) => format!("{k}={s}"),
                    Some(x) => format!("{k}={x}"),
                    None => format!("{k}=?"),
                })
                .collect();
            Row { at: format!("{}[{i}] ({})", mode.rows, tag.join(" ")), v }
        })
        .collect();
    for row in &rows {
        for key in mode.fields {
            if row.v.get(key).and_then(Json::as_f64).is_none() {
                errors.push(format!("{}: {key} missing or not a number", row.at));
            }
        }
    }
    (mode.gates)(&doc, &rows, &mut errors);
    if errors.is_empty() {
        Ok((mode, rows.len()))
    } else {
        Err(errors)
    }
}

/// Runs `mode`, self-validates its snapshot, writes it to `out` (default
/// `BENCH_<name>.json`) and prints where it went. A snapshot that fails its
/// own gates is never written.
///
/// # Errors
///
/// A failed measurement, the self-validation violations, or the write
/// failure.
pub fn publish(mode: &Mode, out: Option<&str>) -> Result<(), Vec<String>> {
    let text = (mode.run)().map_err(|e| vec![e])?;
    let (_, n) = validate(&text).map_err(|errors| {
        errors.into_iter().map(|e| format!("self-validation failed: {e}")).collect::<Vec<_>>()
    })?;
    let path = out.map_or_else(|| format!("BENCH_{}.json", mode.name), String::from);
    std::fs::write(&path, &text).map_err(|e| vec![format!("cannot write {path}: {e}")])?;
    println!("wrote {path}: {n} {} rows pass the {} gates", mode.rows, mode.schema);
    Ok(())
}

/// Whether `v` is JSON `true`.
fn is_true(v: Option<&Json>) -> bool {
    matches!(v, Some(Json::Bool(true)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn committed(name: &str) -> String {
        let path = format!("{}/../../BENCH_{name}.json", env!("CARGO_MANIFEST_DIR"));
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"))
    }

    fn at<'a>(doc: &'a mut Json, path: &[&str]) -> &'a mut Json {
        path.iter().fold(doc, |v, key| match v {
            Json::Obj(m) => m.get_mut(*key).expect("key exists"),
            Json::Arr(a) => &mut a[key.parse::<usize>().expect("array index")],
            _ => panic!("{key}: not a container"),
        })
    }

    #[test]
    fn committed_snapshots_pass_and_each_gate_trips_on_one_bad_field() {
        // (mode, field to mutate, bad value, expected error fragment)
        let cases: [(&str, &[&str], Json, &str); 5] = [
            ("telemetry", &["ops", "0", "energy_error_frac"], Json::Num(0.05), "Table 3"),
            // C=1 B=8: the floor is 0.8 * 8 = 6.4x.
            ("batch", &["sweep", "3", "speedup"], Json::Num(6.0), "below the 6.4x floor"),
            ("hotpath", &["sweep", "0", "identical"], Json::Bool(false), "byte-identical"),
            // Blind placement took 31 actions; 16 aware ones is under 2x.
            ("characterization", &["ab", "aware", "actions"], json::num(16), "2x floor"),
            ("synth", &["kernels", "0", "ratio"], Json::Num(5.0), "AAP ratio 5.00"),
        ];
        for (i, (name, path, bad, want)) in cases.into_iter().enumerate() {
            assert_eq!(MODES[i].name, name, "cases follow MODES order");
            let text = committed(name);
            let (mode, rows) = validate(&text).unwrap_or_else(|e| panic!("{name}: {e:?}"));
            assert!(mode.name == name && rows > 0);

            let mut doc = Json::parse(&text).unwrap();
            *at(&mut doc, path) = bad;
            let errors = validate(&doc.to_string()).expect_err(name);
            assert!(errors.iter().any(|e| e.contains(want)), "{name}: {errors:?}");
        }
        // The hotpath host data-path section is checked outside the sweep.
        let mut doc = Json::parse(&committed("hotpath")).unwrap();
        *at(&mut doc, &["host_io", "2", "write_gbps"]) = Json::Str("fast".into());
        *at(&mut doc, &["host_io", "0", "round_trip"]) = Json::Bool(false);
        let errors = validate(&doc.to_string()).unwrap_err();
        assert!(errors.iter().any(|e| e.contains("host_io[2]: write_gbps missing")), "{errors:?}");
        assert!(errors.iter().any(|e| e.contains("host_io[0]: read_bits did not")), "{errors:?}");
        let text = committed("batch").replace("ambit-bench-batch/v4", "ambit-bench-batch/v9");
        let errors = validate(&text).unwrap_err();
        assert!(errors[0].contains("unknown \"schema\""), "{errors:?}");
    }

    #[test]
    fn writer_emits_the_snapshot_layout() {
        let doc = Doc::new("s/v1", Line::default().put("n", 2usize).put("q", true))
            .put("rows", vec![Line::default().put("x", 0.5), Line::default().put("x", 1.0)])
            .put("x", Line::default().put("s", "a\"b").put("in", Line::default().put("k", 3u64)));
        assert_eq!(
            doc.to_string(),
            concat!(
                "{\n  \"schema\": \"s/v1\",\n  \"config\": {\"n\": 2, \"q\": true},\n",
                "  \"rows\": [\n    {\"x\": 0.5},\n    {\"x\": 1}\n  ],\n",
                "  \"x\": {\"s\": \"a\\\"b\", \"in\": {\"k\": 3}}\n}\n",
            )
        );
    }
}

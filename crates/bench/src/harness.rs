//! The one harness behind the nine artifact experiments (`exp_fleet`,
//! `exp_faults`, `exp_stream`, `exp_ota`, `exp_recovery`, `exp_scale`,
//! `exp_onboard`, `exp_engine`, `exp_dpi`). The five micro-benches in
//! `benches/` time their closures with the same [`per_call_s`] loop,
//! through [`micro_bench`].
//!
//! Each experiment declares two constant configs — `canonical`, which
//! produces the committed `BENCH_<experiment>.json`, and `smoke`, the
//! CI-sized run — and takes exactly two flags:
//!
//! ```text
//! exp_<experiment> [--smoke] [--json PATH]
//! ```
//!
//! Every artifact shares one envelope:
//!
//! ```text
//! {experiment, metrics_schema, config, results, acceptance: [{name, value, op, bound, pass}]}
//! ```
//!
//! [`Args::finish`] writes it and turns a failing acceptance row into a
//! non-zero exit; [`check`] is the gate every committed artifact must
//! pass.

use std::fmt;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::Instant;

use xlf_fleet::FLEET_METRICS_SCHEMA_VERSION;

/// The experiments that write a `BENCH_<name>.json` artifact.
pub const EXPERIMENTS: [&str; 9] = [
    "dpi", "engine", "faults", "fleet", "onboard", "ota", "recovery", "scale", "stream",
];

// ---------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------

/// A JSON value: enough to render and read back every artifact.
/// Numbers are `f64`, rendered in their shortest round-trip form, so a
/// value reads back bit-identical to the one written.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any number (non-finite values render as `null`).
    Num(f64),
    /// A string.
    Str(String),
    /// An array.
    Arr(Vec<Json>),
    /// An object, in insertion order.
    Obj(Vec<(String, Json)>),
}

/// Builds a [`Json::Obj`]: `obj! { "homes" => 64, "wall_s" => fixed(w, 3) }`.
#[macro_export]
macro_rules! obj {
    ($($key:literal => $value:expr),* $(,)?) => {
        $crate::harness::Json::Obj(vec![
            $(($key.to_string(), $crate::harness::Json::from($value))),*
        ])
    };
}

/// `x` rounded to `decimals` places, for readable artifacts.
pub fn fixed(x: f64, decimals: i32) -> f64 {
    let scale = 10f64.powi(decimals);
    (x * scale).round() / scale
}

impl From<bool> for Json {
    fn from(b: bool) -> Self {
        Json::Bool(b)
    }
}

impl From<f64> for Json {
    fn from(x: f64) -> Self {
        Json::Num(x)
    }
}

macro_rules! json_from_int {
    ($($t:ty),*) => {$(
        impl From<$t> for Json {
            fn from(x: $t) -> Self {
                Json::Num(x as f64)
            }
        }
    )*};
}
json_from_int!(u32, u64, usize);

impl From<&str> for Json {
    fn from(s: &str) -> Self {
        Json::Str(s.to_string())
    }
}

impl From<String> for Json {
    fn from(s: String) -> Self {
        Json::Str(s)
    }
}

impl<T: Into<Json>> From<Option<T>> for Json {
    fn from(v: Option<T>) -> Self {
        v.map_or(Json::Null, Into::into)
    }
}

impl<T: Into<Json>> From<Vec<T>> for Json {
    fn from(v: Vec<T>) -> Self {
        Json::Arr(v.into_iter().map(Into::into).collect())
    }
}

impl<T: Into<Json> + Copy> From<&[T]> for Json {
    fn from(v: &[T]) -> Self {
        Json::Arr(v.iter().map(|&x| x.into()).collect())
    }
}

impl Json {
    /// The value under `key`, if this is an object holding it.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Mutable access to the value under `key`.
    pub fn get_mut(&mut self, key: &str) -> Option<&mut Json> {
        match self {
            Json::Obj(fields) => fields.iter_mut().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// Renders the value. Objects and arrays holding containers break
    /// one child per line near the top; everything deeper stays inline.
    pub fn render(&self) -> String {
        let mut out = String::new();
        self.write(&mut out, 0);
        out.push('\n');
        out
    }

    fn write(&self, out: &mut String, depth: usize) {
        match self {
            Json::Null => out.push_str("null"),
            Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
            Json::Num(x) if x.is_finite() => out.push_str(&x.to_string()),
            Json::Num(_) => out.push_str("null"),
            Json::Str(s) => write_str(out, s),
            Json::Arr(items) => {
                let expand = depth < 3 && items.iter().any(Json::is_container);
                write_seq(out, depth, expand, ('[', ']'), items, |out, item| {
                    item.write(out, depth + 1)
                });
            }
            Json::Obj(fields) => {
                let expand = depth < 2 && fields.iter().any(|(_, v)| v.is_container());
                write_seq(out, depth, expand, ('{', '}'), fields, |out, (k, v)| {
                    write_str(out, k);
                    out.push_str(": ");
                    v.write(out, depth + 1);
                });
            }
        }
    }

    fn is_container(&self) -> bool {
        matches!(self, Json::Arr(_) | Json::Obj(_))
    }

    /// Parses one JSON document.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.skip_ws();
        if p.at != p.bytes.len() {
            return Err(format!("trailing bytes at offset {}", p.at));
        }
        Ok(value)
    }
}

fn write_seq<T>(
    out: &mut String,
    depth: usize,
    expand: bool,
    (open, close): (char, char),
    items: &[T],
    mut each: impl FnMut(&mut String, &T),
) {
    out.push(open);
    let indent = "  ".repeat(depth + 1);
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.push(',');
            if !expand {
                out.push(' ');
            }
        }
        if expand {
            out.push('\n');
            out.push_str(&indent);
        }
        each(out, item);
    }
    if expand && !items.is_empty() {
        out.push('\n');
        out.push_str(&"  ".repeat(depth));
    }
    out.push(close);
}

fn write_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn skip_ws(&mut self) {
        while self.bytes.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn expect(&mut self, literal: &str) -> Result<(), String> {
        if self.bytes[self.at..].starts_with(literal.as_bytes()) {
            self.at += literal.len();
            Ok(())
        } else {
            Err(format!("expected {literal} at offset {}", self.at))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.skip_ws();
        match self.bytes.get(self.at) {
            Some(b'n') => self.expect("null").map(|()| Json::Null),
            Some(b't') => self.expect("true").map(|()| Json::Bool(true)),
            Some(b'f') => self.expect("false").map(|()| Json::Bool(false)),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                self.seq(b']', |p| {
                    items.push(p.value()?);
                    Ok(())
                })?;
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.at += 1;
                let mut fields = Vec::new();
                self.seq(b'}', |p| {
                    p.skip_ws();
                    let key = p.string()?;
                    p.skip_ws();
                    p.expect(":")?;
                    fields.push((key, p.value()?));
                    Ok(())
                })?;
                Ok(Json::Obj(fields))
            }
            Some(_) => {
                let start = self.at;
                while self
                    .bytes
                    .get(self.at)
                    .is_some_and(|b| b"+-.eE".contains(b) || b.is_ascii_digit())
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or(format!("bad value at offset {start}"))
            }
            None => Err("unexpected end of input".to_string()),
        }
    }

    /// Comma-separated items up to `close` (the opener is consumed).
    fn seq(
        &mut self,
        close: u8,
        mut item: impl FnMut(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.at) == Some(&close) {
            self.at += 1;
            return Ok(());
        }
        loop {
            item(self)?;
            self.skip_ws();
            match self.bytes.get(self.at) {
                Some(b',') => self.at += 1,
                Some(&b) if b == close => {
                    self.at += 1;
                    return Ok(());
                }
                _ => {
                    return Err(format!(
                        "expected , or {} at offset {}",
                        close as char, self.at
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect("\"")?;
        let mut out = Vec::new();
        loop {
            match self.bytes.get(self.at) {
                Some(b'"') => break,
                Some(b'\\') => {
                    let escaped = match self.bytes.get(self.at + 1) {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(b'u') => {
                            let hex = self.bytes.get(self.at + 2..self.at + 6).unwrap_or(b"");
                            let code = std::str::from_utf8(hex)
                                .ok()
                                .and_then(|h| u32::from_str_radix(h, 16).ok())
                                .and_then(char::from_u32)
                                .ok_or(format!("bad \\u escape at offset {}", self.at))?;
                            let mut buf = [0; 4];
                            out.extend_from_slice(code.encode_utf8(&mut buf).as_bytes());
                            self.at += 6;
                            continue;
                        }
                        Some(&b) => b,
                        None => return Err("unterminated string".to_string()),
                    };
                    out.push(escaped);
                    self.at += 2;
                }
                Some(&b) => {
                    out.push(b);
                    self.at += 1;
                }
                None => return Err("unterminated string".to_string()),
            }
        }
        self.at += 1;
        String::from_utf8(out).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------
// Acceptance rows
// ---------------------------------------------------------------------

/// One acceptance row: `value op bound` must hold.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// What the row gates.
    pub name: String,
    /// The measured value.
    pub value: Json,
    /// The comparison: one of `>=`, `>`, `<=`, `<`, `==`.
    pub op: &'static str,
    /// The bound the value is compared against.
    pub bound: Json,
}

impl Row {
    /// A row requiring `value op bound`.
    pub fn new(
        name: &str,
        value: impl Into<Json>,
        op: &'static str,
        bound: impl Into<Json>,
    ) -> Row {
        Row {
            name: name.to_string(),
            value: value.into(),
            op,
            bound: bound.into(),
        }
    }

    /// A row requiring `holds` to be true.
    pub fn holds(name: &str, holds: bool) -> Row {
        Row::new(name, holds, "==", true)
    }

    /// Whether the row passes.
    pub fn pass(&self) -> bool {
        row_passes(&self.value, self.op, &self.bound)
    }

    fn json(&self) -> Json {
        obj! {
            "name" => self.name.as_str(),
            "value" => self.value.clone(),
            "op" => self.op,
            "bound" => self.bound.clone(),
            "pass" => self.pass(),
        }
    }
}

fn row_passes(value: &Json, op: &str, bound: &Json) -> bool {
    match (op, value, bound) {
        ("==", v, b) => v == b,
        (">=", Json::Num(v), Json::Num(b)) => v >= b,
        (">", Json::Num(v), Json::Num(b)) => v > b,
        ("<=", Json::Num(v), Json::Num(b)) => v <= b,
        ("<", Json::Num(v), Json::Num(b)) => v < b,
        _ => false,
    }
}

// ---------------------------------------------------------------------
// Flags, timing, panics
// ---------------------------------------------------------------------

/// The two flags every experiment takes.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Args {
    /// Run the smoke config instead of the canonical one.
    pub smoke: bool,
    /// Where to write the artifact; nothing is written without it.
    pub json: Option<PathBuf>,
}

impl Args {
    /// Parses the flags after the program name.
    pub fn parse(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--smoke" => parsed.smoke = true,
                "--json" => {
                    let path = it.next().ok_or("--json needs a PATH")?;
                    parsed.json = Some(PathBuf::from(path));
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(parsed)
    }

    /// Parses the process's flags; exits with usage on a bad flag.
    pub fn from_env() -> Args {
        let mut argv = std::env::args();
        let program = argv.next().unwrap_or_default();
        Args::parse(argv).unwrap_or_else(|e| {
            let name = Path::new(&program).file_name().unwrap_or_default();
            eprintln!(
                "{e}\nusage: {} [--smoke] [--json PATH]",
                name.to_string_lossy()
            );
            std::process::exit(2)
        })
    }

    /// The config this run uses.
    pub fn pick<'a, C>(&self, canonical: &'a C, smoke: &'a C) -> &'a C {
        if self.smoke {
            smoke
        } else {
            canonical
        }
    }

    /// Prints the config, the results and the acceptance rows, writes
    /// the envelope to `--json` when given, and fails the process if a
    /// row fails or the write does.
    pub fn finish(&self, experiment: &str, config: Json, results: Json, rows: &[Row]) -> ExitCode {
        let artifact = envelope(experiment, config, self.smoke, results, rows);
        let field = |key| artifact.get(key).expect("envelope field");
        print_field("config", field("config"));
        if let Json::Obj(results) = field("results") {
            results.iter().for_each(|(k, v)| print_field(k, v));
        }
        print_field("acceptance", field("acceptance"));
        if let Some(path) = &self.json {
            match std::fs::write(path, artifact.render()) {
                Ok(()) => println!("Artifact written to {}.", path.display()),
                Err(e) => {
                    eprintln!("could not write {}: {e}", path.display());
                    return ExitCode::FAILURE;
                }
            }
        }
        if rows.iter().all(Row::pass) {
            ExitCode::SUCCESS
        } else {
            eprintln!("{experiment}: acceptance failed");
            ExitCode::FAILURE
        }
    }
}

/// Prints an array of objects as a Markdown table, anything else as one
/// `key: value` line.
fn print_field(key: &str, value: &Json) {
    let rows = match value {
        Json::Arr(rows) if !rows.is_empty() => rows,
        _ => return println!("{key}: {}", inline(value)),
    };
    let Some(Json::Obj(first)) = rows.first() else {
        return println!("{key}: {}", inline(value));
    };
    let header: Vec<&str> = first.iter().map(|(k, _)| k.as_str()).collect();
    let cells: Vec<Vec<String>> = rows
        .iter()
        .map(|row| {
            header
                .iter()
                .map(|k| row.get(k).map_or_else(String::new, inline))
                .collect()
        })
        .collect();
    crate::print_table(key, &header, &cells);
}

/// One-line rendering; strings lose their quotes.
fn inline(value: &Json) -> String {
    match value {
        Json::Str(s) => s.clone(),
        _ => {
            // Containers expand only above depth 3.
            let mut out = String::new();
            value.write(&mut out, 3);
            out
        }
    }
}

/// The artifact envelope: `config` gains a leading `smoke` flag.
pub fn envelope(experiment: &str, config: Json, smoke: bool, results: Json, rows: &[Row]) -> Json {
    let mut config_fields = vec![("smoke".to_string(), Json::Bool(smoke))];
    if let Json::Obj(fields) = config {
        config_fields.extend(fields);
    }
    obj! {
        "experiment" => experiment,
        "metrics_schema" => FLEET_METRICS_SCHEMA_VERSION,
        "config" => Json::Obj(config_fields),
        "results" => results,
        "acceptance" => Json::Arr(rows.iter().map(Row::json).collect()),
    }
}

/// Runs `f(0)`, …, `f(n - 1)` round-robin, `repeats` rounds, and
/// returns per index its last result with its minimum wall time in
/// seconds. The work is deterministic, so only the clock varies: the
/// minimum is the least-noise estimate, and interleaving makes a slow
/// phase of a shared machine hit every index alike.
pub fn best_of_each<T>(repeats: usize, n: usize, mut f: impl FnMut(usize) -> T) -> Vec<(T, f64)> {
    assert!(repeats >= 1, "timing needs at least one repeat");
    let mut best: Vec<(Option<T>, f64)> = (0..n).map(|_| (None, f64::INFINITY)).collect();
    for _ in 0..repeats {
        for (i, (last, secs)) in best.iter_mut().enumerate() {
            let t0 = Instant::now();
            let value = f(i);
            *secs = secs.min(t0.elapsed().as_secs_f64());
            // Dropping the previous result is not part of the work.
            *last = Some(value);
        }
    }
    best.into_iter()
        .map(|(last, secs)| (last.expect("at least one repeat"), secs))
        .collect()
}

/// [`best_of_each`] for a single piece of work.
pub fn best_of<T>(repeats: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut only = best_of_each(repeats, 1, |_| f());
    only.pop().expect("one index")
}

/// Seconds per call of a fast `f`: grows the batch until one batch
/// takes over 10 ms, then reports the best of three batches.
pub fn per_call_s(mut f: impl FnMut()) -> f64 {
    let mut reps = 1u32;
    loop {
        let ((), batch) = best_of(1, || (0..reps).for_each(|_| f()));
        if batch > 0.01 || reps >= 1 << 20 {
            break;
        }
        reps *= 4;
    }
    let ((), best) = best_of(3, || (0..reps).for_each(|_| f()));
    best / f64::from(reps)
}

/// Times one micro-bench closure with [`per_call_s`] and prints one
/// line: `name`, the time per call and, when a call handles `bytes`
/// bytes, the throughput in MB/s.
pub fn micro_bench<T>(name: &str, bytes: Option<usize>, mut f: impl FnMut() -> T) {
    let secs = per_call_s(|| {
        std::hint::black_box(f());
    });
    let time = match secs {
        s if s >= 1e-3 => format!("{:.3} ms", s * 1e3),
        s if s >= 1e-6 => format!("{:.3} us", s * 1e6),
        s => format!("{:.1} ns", s * 1e9),
    };
    match bytes {
        Some(n) => println!("{name:<56} {time:>12} {:>10.1} MB/s", n as f64 / secs / 1e6),
        None => println!("{name:<56} {time:>12}"),
    }
}

/// Silences the default panic report for panics whose message contains
/// `marker` (injected faults the fleet supervisor catches); every other
/// panic still reports.
pub fn quiet_panics(marker: &'static str) {
    let default_hook = std::panic::take_hook();
    std::panic::set_hook(Box::new(move |info| {
        let payload = info.payload();
        let msg = payload
            .downcast_ref::<String>()
            .map(String::as_str)
            .or_else(|| payload.downcast_ref::<&str>().copied())
            .unwrap_or("");
        if !msg.contains(marker) {
            default_hook(info);
        }
    }));
}

// ---------------------------------------------------------------------
// The gate
// ---------------------------------------------------------------------

/// Why an artifact fails [`check`].
#[derive(Debug, Clone, PartialEq)]
pub enum CheckError {
    /// The file could not be read.
    Unreadable(String),
    /// The file is not JSON, or lacks an envelope field.
    Malformed(String),
    /// `experiment` does not match the `BENCH_<experiment>.json` name.
    NameMismatch {
        /// The experiment the file name implies.
        file: String,
        /// The experiment the envelope names.
        experiment: String,
    },
    /// `metrics_schema` is not the current fleet metrics schema.
    StaleSchema {
        /// The schema the artifact embeds.
        found: f64,
        /// [`FLEET_METRICS_SCHEMA_VERSION`].
        current: u32,
    },
    /// The artifact came from a smoke config.
    SmokeArtifact,
    /// The artifact has no acceptance rows.
    NoAcceptance,
    /// An acceptance row does not pass.
    FailingRow(String),
}

impl fmt::Display for CheckError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckError::Unreadable(e) => write!(f, "unreadable: {e}"),
            CheckError::Malformed(e) => write!(f, "malformed: {e}"),
            CheckError::NameMismatch { file, experiment } => {
                write!(
                    f,
                    "file is for {file:?} but holds experiment {experiment:?}"
                )
            }
            CheckError::StaleSchema { found, current } => {
                write!(
                    f,
                    "metrics_schema {found} is stale (current {current}); regenerate"
                )
            }
            CheckError::SmokeArtifact => write!(f, "a smoke artifact; regenerate without --smoke"),
            CheckError::NoAcceptance => write!(f, "no acceptance rows"),
            CheckError::FailingRow(name) => write!(f, "acceptance row {name:?} fails"),
        }
    }
}

impl std::error::Error for CheckError {}

/// Validates the artifact at `path` (named `BENCH_<experiment>.json`):
/// its experiment matches the name, its metrics schema is current, it
/// is not a smoke run, and every acceptance row passes — `pass` as
/// recorded and as recomputed from `value op bound`.
pub fn check(path: &Path) -> Result<(), CheckError> {
    let text = std::fs::read_to_string(path).map_err(|e| CheckError::Unreadable(e.to_string()))?;
    let file = path
        .file_name()
        .and_then(|n| n.to_str())
        .and_then(|n| n.strip_prefix("BENCH_")?.strip_suffix(".json"))
        .unwrap_or_default();
    check_envelope(file, &Json::parse(&text).map_err(CheckError::Malformed)?)
}

/// [`check`] on an already parsed envelope for experiment `file`.
pub fn check_envelope(file: &str, artifact: &Json) -> Result<(), CheckError> {
    let field = |key: &str| {
        artifact
            .get(key)
            .ok_or_else(|| CheckError::Malformed(format!("missing {key}")))
    };
    match field("experiment")? {
        Json::Str(experiment) if experiment == file => {}
        other => {
            return Err(CheckError::NameMismatch {
                file: file.to_string(),
                experiment: inline(other),
            })
        }
    }
    let found = match field("metrics_schema")? {
        Json::Num(n) => *n,
        _ => f64::NAN,
    };
    if found != f64::from(FLEET_METRICS_SCHEMA_VERSION) {
        return Err(CheckError::StaleSchema {
            found,
            current: FLEET_METRICS_SCHEMA_VERSION,
        });
    }
    if field("config")?.get("smoke") != Some(&Json::Bool(false)) {
        return Err(CheckError::SmokeArtifact);
    }
    field("results")?;
    let Json::Arr(rows) = field("acceptance")? else {
        return Err(CheckError::Malformed("acceptance is not an array".into()));
    };
    if rows.is_empty() {
        return Err(CheckError::NoAcceptance);
    }
    for row in rows {
        let name = match row.get("name") {
            Some(Json::Str(n)) => n.clone(),
            _ => {
                return Err(CheckError::Malformed(
                    "acceptance row without a name".into(),
                ))
            }
        };
        let recomputed = match (row.get("value"), row.get("op"), row.get("bound")) {
            (Some(v), Some(Json::Str(op)), Some(b)) => row_passes(v, op, b),
            _ => false,
        };
        if !recomputed || row.get("pass") != Some(&Json::Bool(true)) {
            return Err(CheckError::FailingRow(name));
        }
    }
    Ok(())
}

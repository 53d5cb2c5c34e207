//! Metric names, units and bounds: the single table `BENCHMARK.json` must
//! agree with (a unit test pins that), plus the result-line writer.

/// One reported metric.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"higher"` or `"lower"`.
    pub better: &'static str,
    /// Share of the parent's median a metric may worsen by (end-to-end
    /// metrics only).
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: &'static str, bound: f64) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> Spec {
    Spec {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Reported by every untraced run (`--trace 0`).
pub const END_TO_END: &[Spec] = &[
    e2e("updates_per_s", "1/s", "higher", 0.25),
    e2e("setup_s", "s", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.25),
    e2e("best_accuracy", "fraction", "higher", 0.25),
    e2e("virtual_s", "sim_s", "lower", 0.2),
    e2e("uplink_mb", "MB", "lower", 0.05),
    e2e("downlink_mb", "MB", "lower", 0.05),
    e2e("pass_share", "fraction", "higher", 0.05),
];

/// Reported by every traced run (`--trace 1`).
pub const PER_LAYER: &[Spec] = &[
    layer("local.train_ms", "ms", "lower"),
    layer("local.samples_per_s", "1/s", "higher"),
    layer("compress.encode_us", "us", "lower"),
    layer("compress.decode_us", "us", "lower"),
    layer("compress.ratio", "x", "higher"),
    layer("strategies.on_start_s", "s", "lower"),
    layer("strategies.on_completion_s", "s", "lower"),
    layer("strategies.on_completion_us_p50", "us", "lower"),
    layer("strategies.on_completion_us_p99", "us", "lower"),
    layer("strategies.on_completion_n", "count", "lower"),
    layer("strategies.on_timer_s", "s", "lower"),
    layer("sim.loop_self_s", "s", "lower"),
    layer("sim.events", "count", "lower"),
    layer("sim.timer_events", "count", "lower"),
    layer("exec.launches", "count", "lower"),
    layer("exec.discards", "count", "lower"),
    layer("exec.discard_ratio", "fraction", "lower"),
    layer("fault.timeouts", "count", "lower"),
    layer("fault.retries", "count", "lower"),
    layer("fault.revivals", "count", "lower"),
    layer("fault.clips", "count", "lower"),
    layer("fault.rejects", "count", "lower"),
    layer("fault.stale", "count", "lower"),
    layer("grid.serial_s", "s", "lower"),
    layer("grid.speedup", "x", "higher"),
    layer("eval.evaluate_ms", "ms", "lower"),
    layer("eval.per_client_ms", "ms", "lower"),
    layer("eval.flush_s", "s", "lower"),
    layer("eval.final_s", "s", "lower"),
    layer("aggregate.clients_us", "us", "lower"),
    layer("aggregate.tiers_us", "us", "lower"),
    layer("aggregate.lerp_us", "us", "lower"),
    layer("data.task_gen_s", "s", "lower"),
    layer("sim.fleet_build_s", "s", "lower"),
    layer("strategies.build_s", "s", "lower"),
    layer("trace.wall_s", "s", "lower"),
    layer("trace.overhead_s", "s", "lower"),
    layer("trace.residual_s", "s", "lower"),
];

/// Values keyed by metric name, in insertion order.
#[derive(Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name`. Panics on a name outside both tables or a repeat —
    /// both are bugs in the benchmark, not in the program under test.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(spec(name).is_some(), "unknown metric {name}");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((name, value));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|&(_, v)| v)
    }
}

fn spec(name: &str) -> Option<&'static Spec> {
    END_TO_END.iter().chain(PER_LAYER).find(|s| s.name == name)
}

/// A JSON number: shortest round-trip form, so every digit measured is
/// kept; a non-finite value (a benchmark bug) becomes `null` rather than
/// invalid JSON.
fn number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// Human-readable `name value unit (direction, bound)` lines for `table`,
/// one per metric.
pub fn lines(table: &[Spec], values: &Values) -> Vec<String> {
    table
        .iter()
        .map(|s| {
            let v = values
                .get(s.name)
                .expect("every metric of the table is set");
            let bound = s
                .bound
                .map_or(String::new(), |b| format!(", bound {:.0}%", b * 100.0));
            format!(
                "{:<34} {:>24} {:<8} ({} is better{bound})",
                s.name,
                number(v),
                s.unit,
                s.better
            )
        })
        .collect()
}

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `table` with its unit.
pub fn result_json(
    correct: bool,
    attempted: u64,
    failed: u64,
    table: &[Spec],
    values: &Values,
) -> String {
    let metrics: Vec<String> = table
        .iter()
        .map(|s| {
            let v = values
                .get(s.name)
                .expect("every metric of the table is set");
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                s.name,
                number(v),
                s.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        metrics.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A minimal JSON reader, enough for `BENCHMARK.json`.
    #[derive(Debug, PartialEq)]
    enum Json {
        Null,
        Bool(bool),
        Num(f64),
        Str(String),
        Arr(Vec<Json>),
        Obj(Vec<(String, Json)>),
    }

    impl Json {
        fn get(&self, key: &str) -> &Json {
            match self {
                Json::Obj(fields) => {
                    &fields
                        .iter()
                        .find(|(k, _)| k == key)
                        .unwrap_or_else(|| panic!("no key {key}"))
                        .1
                }
                _ => panic!("not an object"),
            }
        }

        fn str(&self) -> &str {
            match self {
                Json::Str(s) => s,
                other => panic!("not a string: {other:?}"),
            }
        }
    }

    struct Parser<'a> {
        s: &'a [u8],
        i: usize,
    }

    impl Parser<'_> {
        fn ws(&mut self) {
            while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
                self.i += 1;
            }
        }

        fn eat(&mut self, c: u8) {
            self.ws();
            assert_eq!(self.s[self.i], c, "expected {} at {}", c as char, self.i);
            self.i += 1;
        }

        fn value(&mut self) -> Json {
            self.ws();
            match self.s[self.i] {
                b'{' => {
                    self.i += 1;
                    let mut fields = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b'}' {
                            self.i += 1;
                            return Json::Obj(fields);
                        }
                        if !fields.is_empty() {
                            self.eat(b',');
                        }
                        let Json::Str(k) = self.value() else {
                            panic!("object key")
                        };
                        self.eat(b':');
                        fields.push((k, self.value()));
                    }
                }
                b'[' => {
                    self.i += 1;
                    let mut items = Vec::new();
                    loop {
                        self.ws();
                        if self.s[self.i] == b']' {
                            self.i += 1;
                            return Json::Arr(items);
                        }
                        if !items.is_empty() {
                            self.eat(b',');
                        }
                        items.push(self.value());
                    }
                }
                b'"' => {
                    let start = self.i + 1;
                    let end = start + self.s[start..].iter().position(|&c| c == b'"').unwrap();
                    self.i = end + 1;
                    Json::Str(String::from_utf8(self.s[start..end].to_vec()).unwrap())
                }
                b't' | b'f' | b'n' => {
                    let word = [&b"true"[..], b"false", b"null"]
                        .into_iter()
                        .find(|w| self.s[self.i..].starts_with(w))
                        .expect("literal");
                    self.i += word.len();
                    match word[0] {
                        b't' => Json::Bool(true),
                        b'f' => Json::Bool(false),
                        _ => Json::Null,
                    }
                }
                _ => {
                    let start = self.i;
                    while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                        self.i += 1;
                    }
                    Json::Num(
                        std::str::from_utf8(&self.s[start..self.i])
                            .unwrap()
                            .parse()
                            .unwrap(),
                    )
                }
            }
        }
    }

    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, text.len(), "trailing input");
        v
    }

    fn benchmark_json() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark"))
    }

    fn check_table(json: &Json, table: &[Spec]) {
        let Json::Arr(items) = json else {
            panic!("metric list")
        };
        assert_eq!(items.len(), table.len());
        for (item, spec) in items.iter().zip(table) {
            assert_eq!(item.get("name").str(), spec.name);
            assert_eq!(item.get("unit").str(), spec.unit, "{}", spec.name);
            assert_eq!(item.get("better").str(), spec.better, "{}", spec.name);
            match spec.bound {
                Some(b) => assert_eq!(item.get("bound"), &Json::Num(b), "{}", spec.name),
                None => assert!(
                    matches!(item, Json::Obj(f) if f.len() == 3),
                    "{}",
                    spec.name
                ),
            }
        }
    }

    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let json = benchmark_json();
        check_table(json.get("end_to_end"), END_TO_END);
        check_table(json.get("per_layer"), PER_LAYER);
    }

    #[test]
    fn benchmark_json_names_every_workload() {
        let json = benchmark_json();
        let Json::Arr(items) = json.get("workloads") else {
            panic!("workloads")
        };
        let names: Vec<&str> = items.iter().map(|w| w.get("name").str()).collect();
        let expected: Vec<&str> = crate::workload::Workload::ALL
            .iter()
            .map(|w| w.name())
            .collect();
        assert_eq!(names, expected);
    }

    #[test]
    fn setup_time_has_the_largest_bound() {
        let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
        assert_eq!(setup.unit, "s");
        assert_eq!(setup.better, "lower");
        assert!(END_TO_END.iter().all(|s| s.bound <= setup.bound));
        assert!(END_TO_END.iter().all(|s| s.bound.unwrap() <= 0.25));
    }

    #[test]
    fn result_line_is_valid_json_with_units() {
        let mut v = Values::default();
        v.set("updates_per_s", 12.5);
        v.set("setup_s", 0.25);
        let table = &END_TO_END[..2];
        let line = result_json(true, 3, 0, table, &v);
        let json = parse(&line);
        assert_eq!(json.get("correct"), &Json::Bool(true));
        assert_eq!(json.get("attempted"), &Json::Num(3.0));
        let m = json.get("metrics").get("setup_s");
        assert_eq!(m.get("value"), &Json::Num(0.25));
        assert_eq!(m.get("unit").str(), "s");
    }
}

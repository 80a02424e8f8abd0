//! `BENCHMARK.json` and the runner's metric catalogue agree.

use isobar_perfbench::metrics::{valid_name, MetricDef, END_TO_END, PER_LAYER};
use isobar_perfbench::Workload;

/// Just enough JSON for `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
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
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.as_str()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(items) => items,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("{other:?} is not a number"),
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
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(fields);
                }
                loop {
                    self.ws();
                    let Json::Str(key) = self.value() else {
                        panic!("key")
                    };
                    self.eat(b':');
                    fields.push((key, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(fields);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "no escapes in BENCHMARK.json");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at {}", self.i)
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

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    let v = p.value();
    p.ws();
    assert_eq!(p.i, text.len(), "trailing bytes");
    v
}

fn assert_same(section: &Json, defs: &[MetricDef], with_bound: bool) {
    let listed: Vec<(&str, &str)> = section
        .arr()
        .iter()
        .map(|m| {
            let mut keys = vec!["name", "unit", "better"];
            if with_bound {
                keys.push("bound");
                let bound = m.get("bound").num();
                assert!(bound > 0.0 && bound <= 0.25, "{bound}");
            }
            assert_eq!(m.keys(), keys);
            assert!(matches!(m.get("better").str(), "lower" | "higher"));
            (m.get("name").str(), m.get("unit").str())
        })
        .collect();
    let catalogue: Vec<(&str, &str)> = defs.iter().map(|d| (d.name, d.unit)).collect();
    assert_eq!(listed, catalogue);
}

#[test]
fn benchmark_json_names_exactly_the_printed_metrics() {
    let b = benchmark_json();
    assert_eq!(
        b.keys(),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    assert_same(b.get("end_to_end"), END_TO_END, true);
    assert_same(b.get("per_layer"), PER_LAYER, false);
    let setup = b
        .get("end_to_end")
        .arr()
        .iter()
        .find(|m| m.get("name").str() == "setup_s")
        .expect("setup_s is an end-to-end metric");
    assert_eq!(setup.get("unit").str(), "s");
    assert_eq!(setup.get("better").str(), "lower");
}

#[test]
fn benchmark_json_workloads_are_runner_workloads() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| {
            assert_eq!(w.keys(), ["name", "why"]);
            let why = w.get("why").str();
            assert!(!why.is_empty() && why.len() <= 200 && !why.contains('\n'));
            w.get("name").str()
        })
        .collect();
    assert!(names.len() >= 2);
    for name in &names {
        assert!(valid_name(name));
        assert!(Workload::from_name(name).is_some(), "{name} is runnable");
    }
    let seconds = b.get("run_seconds").num();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    assert_eq!(b.get("paths").arr(), [Json::Str("perfbench".to_string())]);
}

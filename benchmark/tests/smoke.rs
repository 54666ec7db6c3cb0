//! Every workload at smoke size, untraced and traced: each run must exit
//! 0 with `correct: true`, and the metric names on its result line must
//! be exactly the ones `BENCHMARK.json` declares — the `end_to_end` list
//! without `--trace`, the `per_layer` list with it.

use rlibm_benchmark::WORKLOADS;
use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// Just enough JSON for `BENCHMARK.json` and the result line.
#[derive(Debug)]
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
            other => panic!("{other:?} is not an object"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("{other:?} is not an array"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("{other:?} is not a string"),
        }
    }

    fn keys(&self) -> BTreeSet<String> {
        match self {
            Json::Obj(fields) => fields.iter().map(|(k, _)| k.clone()).collect(),
            other => panic!("{other:?} is not an object"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at byte {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let start = self.i;
        while self.s[self.i] != b'"' {
            assert_ne!(self.s[self.i], b'\\', "escapes are not used in these files");
            self.i += 1;
        }
        self.i += 1;
        String::from_utf8(self.s[start..self.i - 1].to_vec()).expect("utf-8")
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
                    let k = self.string();
                    self.eat(b':');
                    fields.push((k, self.value()));
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
            b'"' => Json::Str(self.string()),
            _ => {
                let start = self.i;
                while self
                    .s
                    .get(self.i)
                    .is_some_and(|c| !b",]} \n\r\t".contains(c))
                {
                    self.i += 1;
                }
                match std::str::from_utf8(&self.s[start..self.i]).expect("utf-8") {
                    "null" => Json::Null,
                    "true" => Json::Bool(true),
                    "false" => Json::Bool(false),
                    num => Json::Num(num.parse().unwrap_or_else(|_| panic!("bad token {num:?}"))),
                }
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
    assert_eq!(p.i, text.len(), "trailing text after JSON");
    v
}

fn names(spec: &Json, section: &str) -> BTreeSet<String> {
    spec.get(section)
        .arr()
        .iter()
        .map(|m| m.get("name").str().to_string())
        .collect()
}

#[test]
fn every_workload_reports_exactly_the_declared_metrics() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let spec =
        parse(&std::fs::read_to_string(root.join("BENCHMARK.json")).expect("read BENCHMARK.json"));
    let declared: Vec<&str> = spec
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(
        declared, WORKLOADS,
        "BENCHMARK.json and the binary list different workloads"
    );
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let want = names(&spec, section);
        for w in WORKLOADS {
            let out = Command::new(env!("CARGO_BIN_EXE_rlibm-benchmark"))
                .current_dir(&root)
                .args([
                    "--workload",
                    w,
                    "--seed",
                    "7",
                    "--seconds",
                    "1",
                    "--smoke",
                    "--trace",
                    trace,
                ])
                .output()
                .expect("run the benchmark");
            let stdout = String::from_utf8_lossy(&out.stdout);
            assert!(
                out.status.success(),
                "{w} --trace {trace} failed:\n{stdout}\n{}",
                String::from_utf8_lossy(&out.stderr)
            );
            let result = parse(stdout.lines().last().expect("a result line"));
            assert!(
                matches!(result.get("correct"), Json::Bool(true)),
                "{w}: {stdout}"
            );
            assert!(matches!(result.get("attempted"), Json::Num(n) if *n >= 1.0));
            let got = result.get("metrics").keys();
            let missing: Vec<_> = want.difference(&got).collect();
            let extra: Vec<_> = got.difference(&want).collect();
            assert!(
                missing.is_empty() && extra.is_empty(),
                "{w} --trace {trace}: missing {missing:?}, undeclared {extra:?}"
            );
            for line in stdout.lines().filter(|l| l.starts_with("metric ")) {
                assert!(
                    line.split_whitespace()
                        .last()
                        .is_some_and(|n| n.starts_with("n=")),
                    "no sample count: {line}"
                );
            }
        }
    }
}

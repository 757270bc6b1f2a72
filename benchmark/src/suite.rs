//! The suite: every workload in its own process, `results.json`, the
//! `--smoke` schema check and the `--aa N` steadiness check.

use std::fmt::Write as _;
use std::path::Path;
use std::process::{Command, ExitCode};

use crate::json::{escape, Json};
use crate::report::{quartiles, END_TO_END, PER_LAYER};
use crate::{Cli, WORKLOADS};

/// `--smoke`: data sizes divided by this, ...
const SMOKE_SCALE: usize = 20;
/// ... one-second timed phases, and a single set-up.
const SMOKE_SECONDS: f64 = 1.0;

/// One child run: the parsed result line.
struct Outcome {
    correct: bool,
    attempted: f64,
    failed: f64,
    /// `(name, value, unit)` in the child's order.
    metrics: Vec<(String, f64, String)>,
}

pub fn run(cli: &Cli) -> ExitCode {
    let result = match cli.aa {
        Some(n) => aa(cli, n),
        None => once(cli),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("dsh-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

/// Run one workload in a child process; echo its metric lines; parse the
/// result line. A child that printed no result line is an error.
fn child(cli: &Cli, workload: &str, seed: u64, traced: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let (seconds, scale, reps) = if cli.smoke {
        (SMOKE_SECONDS, SMOKE_SCALE, 1)
    } else {
        (cli.seconds, cli.scale, cli.setup_reps)
    };
    let output = Command::new(exe)
        .args(["--workload", workload])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .args(["--scale", &scale.to_string()])
        .args(["--setup-reps", &reps.to_string()])
        .arg("--out")
        .arg(&cli.out_dir)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn {workload}: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let mut lines: Vec<&str> = stdout.lines().collect();
    let last = lines
        .pop()
        .filter(|l| l.starts_with('{'))
        .ok_or_else(|| format!("{workload} printed no result line ({})", output.status))?;
    for line in lines {
        println!("{line}");
    }
    let json = Json::parse(last).map_err(|e| format!("{workload} result line: {e}"))?;
    let field = |k: &str| {
        json.get(k)
            .ok_or_else(|| format!("{workload} result line lacks {k}"))
    };
    let metrics = match field("metrics")? {
        Json::Obj(fields) => fields
            .iter()
            .map(|(name, m)| {
                let value = m.get("value").and_then(Json::as_f64);
                let unit = m.get("unit").and_then(Json::as_str);
                match (value, unit) {
                    (Some(v), Some(u)) => Ok((name.clone(), v, u.to_string())),
                    _ => Err(format!("{workload}: metric {name} lacks a value or a unit")),
                }
            })
            .collect::<Result<Vec<_>, _>>()?,
        _ => return Err(format!("{workload}: metrics is not an object")),
    };
    Ok(Outcome {
        correct: field("correct")? == &Json::Bool(true),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0),
        failed: field("failed")?.as_f64().unwrap_or(0.0),
        metrics,
    })
}

/// The plain suite (and `--smoke`): every workload once, traced too when
/// asked; writes `results.json`; under `--smoke` checks it against
/// `BENCHMARK.json`.
fn once(cli: &Cli) -> Result<bool, String> {
    // The smoke run exercises the traced pass too: it is the one command
    // a CI job calls.
    let traced = cli.trace || cli.smoke;
    let mut all_correct = true;
    let mut doc = String::new();
    write!(
        doc,
        "{{\n  \"seed\": {},\n  \"smoke\": {},\n  \"workloads\": {{",
        cli.seed, cli.smoke
    )
    .ok();
    for (i, workload) in WORKLOADS.iter().enumerate() {
        let plain = child(cli, workload, cli.seed, false)?;
        let layers = if traced {
            Some(child(cli, workload, cli.seed, true)?)
        } else {
            None
        };
        let correct = plain.correct && layers.as_ref().is_none_or(|l| l.correct);
        all_correct &= correct;
        let sep = if i > 0 { "," } else { "" };
        write!(
            doc,
            "{sep}\n    \"{workload}\": {{\n      \"correct\": {correct}, \"attempted\": {}, \"failed\": {},\n      \"end_to_end\": {}",
            plain.attempted,
            plain.failed,
            metrics_json(&plain.metrics)
        )
        .ok();
        if let Some(layers) = &layers {
            write!(
                doc,
                ",\n      \"per_layer\": {}",
                metrics_json(&layers.metrics)
            )
            .ok();
        }
        doc.push_str("\n    }");
    }
    doc.push_str("\n  }\n}\n");
    let path = cli.out_dir.join("results.json");
    std::fs::create_dir_all(&cli.out_dir)
        .and_then(|()| std::fs::write(&path, &doc))
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    println!("wrote {}", path.display());
    if cli.smoke {
        check_schema(&cli.contract, &path)?;
        println!("schema check against {} passed", cli.contract.display());
    }
    if !all_correct {
        println!("FAILED: at least one workload reported correct = false");
    }
    Ok(all_correct)
}

fn metrics_json(metrics: &[(String, f64, String)]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!(
                "\"{}\": {{\"value\": {value}, \"unit\": \"{}\"}}",
                escape(name),
                escape(unit)
            )
        })
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// `(name, unit, better, bound)` of the contract's end-to-end metrics.
type Gate = (String, String, String, f64);

struct Contract {
    workloads: Vec<String>,
    end_to_end: Vec<Gate>,
    per_layer: Vec<(String, String)>,
}

fn read_contract(path: &Path) -> Result<Contract, String> {
    let text =
        std::fs::read_to_string(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let doc = Json::parse(&text)?;
    let list = |key: &str| {
        doc.get(key)
            .and_then(Json::as_array)
            .ok_or_else(|| format!("{}: no {key} list", path.display()))
    };
    let text_of = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("{}: an entry lacks {key}", path.display()))
    };
    Ok(Contract {
        workloads: list("workloads")?
            .iter()
            .map(|w| text_of(w, "name"))
            .collect::<Result<_, _>>()?,
        end_to_end: list("end_to_end")?
            .iter()
            .map(|m| {
                let bound = m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("{}: a metric lacks a bound", path.display()))?;
                Ok((
                    text_of(m, "name")?,
                    text_of(m, "unit")?,
                    text_of(m, "better")?,
                    bound,
                ))
            })
            .collect::<Result<_, String>>()?,
        per_layer: list("per_layer")?
            .iter()
            .map(|m| Ok((text_of(m, "name")?, text_of(m, "unit")?)))
            .collect::<Result<_, String>>()?,
    })
}

/// `results.json` against `BENCHMARK.json`: the same workloads; every
/// metric the contract names present for every workload, numeric, with
/// the contract's unit; and the harness's own tables equal to the
/// contract's.
fn check_schema(contract: &Path, results: &Path) -> Result<(), String> {
    let c = read_contract(contract)?;
    let same = |ours: &[(&str, &str)], theirs: Vec<(&str, &str)>, what: &str| {
        if ours == theirs.as_slice() {
            Ok(())
        } else {
            Err(format!(
                "the harness's {what} table differs from {}",
                contract.display()
            ))
        }
    };
    same(
        END_TO_END,
        c.end_to_end
            .iter()
            .map(|(n, u, _, _)| (n.as_str(), u.as_str()))
            .collect(),
        "end_to_end",
    )?;
    same(
        PER_LAYER,
        c.per_layer
            .iter()
            .map(|(n, u)| (n.as_str(), u.as_str()))
            .collect(),
        "per_layer",
    )?;
    if c.workloads != WORKLOADS {
        return Err(format!("workloads differ from {}", contract.display()));
    }
    let text =
        std::fs::read_to_string(results).map_err(|e| format!("read {}: {e}", results.display()))?;
    let doc = Json::parse(&text)?;
    for workload in &c.workloads {
        let entry = doc
            .get("workloads")
            .and_then(|w| w.get(workload))
            .ok_or_else(|| format!("results lack workload {workload}"))?;
        let sections = [
            (
                "end_to_end",
                c.end_to_end
                    .iter()
                    .map(|g| (&g.0, &g.1))
                    .collect::<Vec<_>>(),
            ),
            (
                "per_layer",
                c.per_layer.iter().map(|g| (&g.0, &g.1)).collect(),
            ),
        ];
        for (section, metrics) in sections {
            for (name, unit) in metrics {
                let m = entry
                    .get(section)
                    .and_then(|s| s.get(name))
                    .ok_or_else(|| format!("{workload}: {section} metric {name} is missing"))?;
                let numeric = m
                    .get("value")
                    .and_then(Json::as_f64)
                    .is_some_and(f64::is_finite);
                if !numeric || m.get("unit").and_then(Json::as_str) != Some(unit.as_str()) {
                    return Err(format!(
                        "{workload}: {name} is not a number with unit {unit}"
                    ));
                }
            }
        }
    }
    Ok(())
}

/// `--aa N`: the suite `2N` times as two interleaved sets of the same
/// code, every run with another seed — the check the gate's driver makes
/// before it accepts the benchmark. Per workload and end-to-end metric:
/// each set's median and quartiles, the spread (interquartile range over
/// median) against the metric's bound, and whether set B's median is
/// worse than set A's by more than the bound.
fn aa(cli: &Cli, n: usize) -> Result<bool, String> {
    let contract = read_contract(&cli.contract)?;
    let workloads = WORKLOADS;
    // values[set][workload][metric] -> one value per run
    let mut values = vec![vec![vec![Vec::new(); contract.end_to_end.len()]; workloads.len()]; 2];
    let mut all_correct = true;
    for i in 0..n {
        for (set, per_workload) in values.iter_mut().enumerate() {
            let seed = cli.seed + (2 * i + set) as u64;
            for (workload, per_metric) in workloads.iter().zip(per_workload.iter_mut()) {
                let outcome = child(cli, workload, seed, false)?;
                all_correct &= outcome.correct;
                for ((name, ..), slot) in contract.end_to_end.iter().zip(per_metric.iter_mut()) {
                    let value = outcome
                        .metrics
                        .iter()
                        .find(|(m, ..)| m == name)
                        .map(|&(_, v, _)| v)
                        .ok_or_else(|| format!("{workload} did not report {name}"))?;
                    slot.push(value);
                }
            }
        }
    }
    let mut steady = true;
    println!(
        "{:<20} {:<20} {:>14} {:>8} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "A iqr%", "B median", "B iqr%", "B-A %", "bound%"
    );
    for (w, workload) in workloads.iter().enumerate() {
        for (m, (name, _, better, bound)) in contract.end_to_end.iter().enumerate() {
            let [a, b] = [0, 1].map(|set| {
                let [q1, q2, q3] = quartiles(&values[set][w][m]);
                (q2, (q3 - q1) / q2)
            });
            let worse = if better == "lower" {
                (b.0 - a.0) / a.0
            } else {
                (a.0 - b.0) / a.0
            };
            // The driver leaves `setup_s`'s spread unchecked.
            let spread_ok = name == "setup_s" || (a.1 <= *bound && b.1 <= *bound);
            let ok = spread_ok && worse <= *bound;
            steady &= ok;
            let third = name != "setup_s" && (a.1 > bound / 3.0 || b.1 > bound / 3.0);
            println!(
                "{workload:<20} {name:<20} {:>14.6} {:>8.2} {:>14.6} {:>8.2} {:>+8.2} {:>6.1}  {}",
                a.0,
                100.0 * a.1,
                b.0,
                100.0 * b.1,
                100.0 * worse,
                100.0 * bound,
                match (ok, third) {
                    (false, _) => "DISAGREE",
                    (true, true) => "agree (spread above a third of the bound)",
                    (true, false) => "agree",
                }
            );
        }
    }
    if !all_correct {
        println!("FAILED: at least one run reported correct = false");
    }
    Ok(steady && all_correct)
}

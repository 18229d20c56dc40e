//! `rdbp-sim` — command-line simulator for ring-demand partitioning.
//!
//! ```text
//! rdbp-sim --servers 8 --capacity 32 --algorithm dynamic \
//!          --workload zipf --steps 100000 --epsilon 0.5 --seed 1
//! rdbp-sim --scenario examples/scenario.json --json
//! ```
//!
//! Every run — flag-driven or file-driven — goes through the scenario
//! engine: flags are folded into a [`Scenario`] spec, algorithms and
//! workloads resolve through the shared registries, and the audited
//! driver executes it. `--scenario FILE` loads a spec instead of
//! building one from flags; `--save-scenario FILE` persists the
//! effective spec; `--json` emits the [`RunReport`] as JSON.
//!
//! `--save-trace FILE` writes the served requests as JSON for offline
//! analysis; `--load-trace FILE` replays one instead of generating.

use std::collections::HashMap;
use std::path::Path;
use std::process::exit;

use rdbp::model::observers::TraceRecorder;
use rdbp::model::trace::Trace;
use rdbp::prelude::*;
use serde::{Serialize, Value};

/// Newtype handing a raw serde [`Value`] to the JSON text layer.
struct JsonValue(Value);

impl Serialize for JsonValue {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

struct Args(HashMap<String, String>);

impl Args {
    fn parse() -> Self {
        let mut map = HashMap::new();
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let Some(name) = flag.strip_prefix("--") else {
                eprintln!("unexpected argument `{flag}` (flags start with --)");
                exit(2);
            };
            if name == "help" {
                print_help();
                exit(0);
            }
            if matches!(
                name,
                "opt"
                    | "audit"
                    | "json"
                    | "counters"
                    | "ratio"
                    | "list-algorithms"
                    | "list-workloads"
                    | "list-adversaries"
            ) {
                map.insert(name.to_string(), "true".to_string());
                continue;
            }
            let Some(value) = it.next() else {
                eprintln!("flag --{name} needs a value");
                exit(2);
            };
            map.insert(name.to_string(), value);
        }
        Self(map)
    }

    fn get<T: std::str::FromStr>(&self, name: &str, default: T) -> T {
        match self.0.get(name) {
            None => default,
            Some(raw) => raw.parse().unwrap_or_else(|_| {
                eprintln!("invalid value `{raw}` for --{name}");
                exit(2);
            }),
        }
    }

    fn str(&self, name: &str, default: &str) -> String {
        self.0.get(name).cloned().unwrap_or_else(|| default.into())
    }

    fn flag(&self, name: &str) -> bool {
        self.0.contains_key(name)
    }
}

fn print_help() {
    println!(
        "rdbp-sim — online balanced ring partitioning simulator\n\n\
         USAGE: rdbp-sim [FLAGS]\n\n\
         --scenario F     load a scenario spec (JSON) instead of the flags below\n\
         --servers N      number of servers ℓ (default 4)\n\
         --capacity N     per-server capacity k (default 16)\n\
         --steps N        requests to serve (default 10000)\n\
         --algorithm A    dynamic|static|greedy|component|never-move (default dynamic)\n\
         --policy P       wfa|smin|hedge|marking — MTS box for `dynamic` (default hedge)\n\
         --workload W     uniform|zipf|sliding|allreduce|bursty|random-walk|hotspot|chaser\n\
         --epsilon X      augmentation slack (default 0.5)\n\
         --seed N         RNG seed (default 0)\n\
         --zipf-s X       Zipf exponent (default 1.2)\n\
         --batch N        serve in batches of N through the batch driver\n\
         \x20                (identical report; incompatible with --opt and traces)\n\
         --opt            also compute the exact static-OPT lower bound\n\
         --ratio          also compare against an offline oracle: report\n\
         \x20                cost / oracle-LB (and the oracle's UB when it has\n\
         \x20                one); with --json adds an \"oracle\" object\n\
         --opt-oracle O   oracle for --ratio: exact|interval|ringload\n\
         \x20                (default ringload; `exact` needs a tiny instance)\n\
         --audit          run with full per-step auditing\n\
         --json           print the run report as JSON\n\
         --counters       also print the deterministic work counters\n\
         \x20                (the perf-gate metrics; with --json, wraps the output\n\
         \x20                as {{\"report\": …, \"counters\": …}})\n\
         --adversary A    drive the run with an adaptive adversary\n\
         \x20                (chaser|cut-chaser|greedy-cut|separation; overrides\n\
         \x20                --workload); with --search-budget, restricts the\n\
         \x20                search to that one strategy\n\
         --search-budget N  run the adversary search (DESIGN.md §15) instead\n\
         \x20                of a single run: N rollout evaluations maximizing\n\
         \x20                cost / oracle-LB over request schedules; reports\n\
         \x20                the worst schedule found (uses --opt-oracle as the\n\
         \x20                denominator; with --json adds a \"search\" object)\n\
         --save-scenario F  write the effective scenario spec as JSON\n\
         --save-trace F   write the request trace as JSON\n\
         --load-trace F   replay a JSON trace (ignores --workload/--steps)\n\
         --list-algorithms  print the registered algorithm keys and exit\n\
         --list-workloads   print the registered workload keys and exit\n\
         --list-adversaries print the registered adversary keys and exit"
    );
}

fn fail(err: impl std::fmt::Display) -> ! {
    eprintln!("{err}");
    exit(2)
}

/// Folds the legacy CLI flags into a scenario spec.
fn scenario_from_flags(args: &Args) -> Scenario {
    let mut algorithm = AlgorithmSpec::named(args.str("algorithm", "dynamic"));
    algorithm.epsilon = Some(args.get("epsilon", 0.5));
    algorithm.policy = Some(args.str("policy", "hedge"));
    let mut workload = WorkloadSpec::named(args.str("workload", "uniform"));
    workload.zipf_s = Some(args.get("zipf-s", 1.2));
    Scenario {
        instance: InstanceSpec::packed(args.get("servers", 4), args.get("capacity", 16)),
        algorithm,
        workload,
        steps: args.get("steps", 10_000),
        seed: args.get("seed", 0),
        audit: if args.flag("audit") {
            AuditSpec::Full
        } else {
            AuditSpec::None
        },
    }
}

fn main() {
    let args = Args::parse();

    // Key listings come straight from the registries — the same lists
    // the unknown-key errors cite, so they can never drift apart.
    if args.flag("list-algorithms") || args.flag("list-workloads") || args.flag("list-adversaries")
    {
        let registries = Registries::builtin();
        if args.flag("list-algorithms") {
            for key in registries.algorithms.keys() {
                println!("{key}");
            }
        }
        if args.flag("list-workloads") {
            for key in registries.workloads.keys() {
                println!("{key}");
            }
        }
        if args.flag("list-adversaries") {
            for key in registries.workloads.adversary_keys() {
                println!("{key}");
            }
        }
        return;
    }

    let mut scenario = match args.0.get("scenario") {
        Some(path) => Scenario::load(Path::new(path))
            .unwrap_or_else(|e| fail(format!("cannot load scenario: {e}"))),
        None => scenario_from_flags(&args),
    };
    // --audit upgrades a loaded scenario too.
    if args.flag("audit") && scenario.audit == AuditSpec::None {
        scenario.audit = AuditSpec::Full;
    }

    // --adversary drives the run with an adaptive strategy. Adversaries
    // are workloads, so outside of search mode it names the workload,
    // refusing the oblivious ones.
    if let Some(key) = args.0.get("adversary") {
        Registries::builtin()
            .workloads
            .check_adversary(key)
            .unwrap_or_else(|e| fail(e.0));
        scenario.workload = WorkloadSpec::named(key.clone());
    }

    // --search-budget switches to adversary-search mode: instead of one
    // run, spend N rollouts searching for the schedule that maximizes
    // the algorithm's cost / certified-LB ratio (DESIGN.md §15).
    if let Some(raw) = args.0.get("search-budget") {
        let budget: u64 = raw
            .parse()
            .unwrap_or_else(|_| fail(format!("invalid value `{raw}` for --search-budget")));
        for incompatible in ["opt", "batch", "save-trace", "load-trace"] {
            if args.0.contains_key(incompatible) {
                fail(format!(
                    "--search-budget runs a schedule search, not a single serve, \
                     and cannot be combined with --{incompatible}"
                ));
            }
        }
        let registries = Registries::builtin();
        let inst = scenario.instance.build().unwrap_or_else(|e| fail(e));
        let mut config = SearchConfig::new(scenario.algorithm.clone(), scenario.steps);
        config.budget = budget;
        config.seed = scenario.seed;
        config.oracle = OracleSpec::named(args.str("opt-oracle", "ringload"));
        if let Some(key) = args.0.get("adversary") {
            config.adversaries = vec![key.clone()];
        }
        let outcome = adversary_search(&inst, &config, &registries).unwrap_or_else(|e| fail(e));
        if args.flag("json") {
            let search = Value::Obj(vec![
                ("adversary".into(), outcome.best_adversary.to_value()),
                ("cost".into(), outcome.best_cost.to_value()),
                ("lower_bound".into(), outcome.best_lower_bound.to_value()),
                ("ratio".into(), outcome.best_ratio.to_value()),
                ("evaluations".into(), outcome.evaluations.to_value()),
                ("restarts".into(), outcome.restarts.to_value()),
                ("trace_len".into(), (outcome.trace.len() as u64).to_value()),
            ]);
            let text =
                serde_json::to_string(&JsonValue(Value::Obj(vec![("search".into(), search)])))
                    .unwrap_or_else(|e| fail(format!("cannot serialize search outcome: {e}")));
            println!("{text}");
        } else {
            println!(
                "instance: n={} ℓ={} k={} | algorithm={} | search budget {} (seed {})",
                inst.n(),
                inst.servers(),
                inst.capacity(),
                scenario.algorithm.name,
                budget,
                scenario.seed
            );
            println!(
                "worst schedule: adversary={} cost={} LB={:.1} → ratio {:.2} \
                 ({} evaluations, {} restarts, {} requests)",
                outcome.best_adversary,
                outcome.best_cost,
                outcome.best_lower_bound,
                outcome.best_ratio,
                outcome.evaluations,
                outcome.restarts,
                outcome.trace.len()
            );
        }
        return;
    }

    if let Some(path) = args.0.get("save-scenario") {
        scenario
            .save(Path::new(path))
            .unwrap_or_else(|e| fail(format!("cannot save scenario: {e}")));
        eprintln!("scenario saved to {path}");
    }

    // --batch routes the run through the batched driver. Batched runs
    // emit no per-step events, so the trace- and OPT-features that need
    // them are rejected up front instead of silently recording nothing.
    let batch: Option<u64> = args.0.get("batch").map(|raw| {
        let n = raw
            .parse()
            .unwrap_or_else(|_| fail(format!("invalid value `{raw}` for --batch")));
        if n == 0 {
            fail("--batch must be positive");
        }
        n
    });
    if batch.is_some() {
        for incompatible in ["opt", "ratio", "save-trace", "load-trace"] {
            if args.0.contains_key(incompatible) {
                fail(format!(
                    "--batch serves without per-step events and cannot be combined \
                     with --{incompatible}"
                ));
            }
        }
    }

    let registries = Registries::builtin();
    // One resolution serves the whole invocation: the run itself, the
    // displayed limit, and the audit level for trace replays.
    let prepared = scenario.resolve(&registries).unwrap_or_else(|e| fail(e));
    let inst = *prepared.instance();
    let load_limit = match prepared.audit() {
        AuditLevel::Full { load_limit } => load_limit.to_string(),
        // Unaudited runs still show the algorithm's guaranteed bound.
        AuditLevel::None => format!("{}, unaudited", prepared.load_bound()),
    };

    // Serve: replay a recorded trace, or run the scenario live while
    // recording the requests it generates (for --opt / --save-trace).
    let mut recorder = TraceRecorder::new();
    let loaded: Option<Trace> = args.0.get("load-trace").map(|path| {
        let t = Trace::load(Path::new(path))
            .unwrap_or_else(|e| fail(format!("cannot load trace: {e}")));
        if t.instance != inst {
            fail(format!(
                "trace instance {:?} differs from scenario instance — pass matching --servers/--capacity",
                t.instance
            ));
        }
        t
    });
    // Without --batch the recorder asks for per-step events, so the run
    // serves one request at a time; --batch drops it for the batched
    // driver. The work counters come back with every run.
    let mut noop = rdbp::model::NoopObserver;
    let observer: &mut dyn Observer = if batch.is_some() {
        &mut noop
    } else {
        &mut recorder
    };
    let trace = loaded.as_ref().map(|t| t.requests.as_slice());
    let (report, mut counters) = prepared.run(trace, batch.unwrap_or(1), observer);
    let requests = recorder.into_requests();

    // --ratio compares the run against an offline oracle on the exact
    // trace just served (DESIGN.md §13). The oracle's own work shows up
    // in the counters, so a perf-gated CLI run accounts for it too.
    let oracle_report = if args.flag("ratio") {
        let spec = OracleSpec::named(args.str("opt-oracle", "ringload"));
        let mut oracle = registries
            .oracles
            .resolve(&spec, &inst)
            .unwrap_or_else(|e| fail(e));
        if !oracle.supports(&inst) {
            fail(format!(
                "oracle `{}` does not support n={} ℓ={} k={} — try --opt-oracle ringload",
                spec.name,
                inst.n(),
                inst.servers(),
                inst.capacity()
            ));
        }
        let initial = Placement::contiguous(&inst);
        let lb = oracle.lower_bound(&inst, &initial, &requests);
        let ub = oracle.upper_bound(&inst, &initial, &requests);
        counters.merge(&oracle.work_counters());
        Some(OracleReport::new(
            oracle.name(),
            report.ledger.total(),
            lb,
            ub,
        ))
    } else {
        None
    };

    if args.flag("json") {
        let text = if args.flag("counters") || oracle_report.is_some() {
            let mut fields = vec![("report".into(), report.to_value())];
            if args.flag("counters") {
                fields.push(("counters".into(), counters.to_value()));
            }
            if let Some(orep) = &oracle_report {
                fields.push(("oracle".into(), orep.to_value()));
            }
            serde_json::to_string(&JsonValue(Value::Obj(fields)))
        } else {
            serde_json::to_string(&report)
        }
        .unwrap_or_else(|e| fail(format!("cannot serialize report: {e}")));
        println!("{text}");
    } else {
        println!(
            "instance: n={} ℓ={} k={} | algorithm={} workload={} seed={}",
            inst.n(),
            inst.servers(),
            inst.capacity(),
            report.algorithm,
            report.workload,
            scenario.seed
        );
        println!(
            "served {} requests: {} | max load {} (limit {})",
            report.steps, report.ledger, report.max_load_seen, load_limit
        );
        if scenario.audit != AuditSpec::None {
            println!("capacity violations: {}", report.capacity_violations);
        }
        if args.flag("counters") {
            println!("work counters (deterministic — see DESIGN.md §10):");
            for (name, value) in counters.named() {
                println!("  {name:<20} {value}");
            }
        }
        if let Some(orep) = &oracle_report {
            let ub = orep
                .upper_bound
                .map_or_else(|| "n/a".to_string(), |u| format!("{u:.1}"));
            println!(
                "oracle {}: LB {:.1} UB {ub} → ratio {:.2}",
                orep.oracle, orep.lower_bound, orep.ratio
            );
        }
    }

    if args.flag("opt") {
        let mut weights = vec![0u64; inst.n() as usize];
        for e in &requests {
            weights[e.0 as usize] += 1;
        }
        let opt = static_opt(&weights, inst.servers(), inst.capacity());
        println!(
            "static OPT {}: {} → ratio {:.2}",
            if opt.packable {
                "(certified)"
            } else {
                "(lower bound)"
            },
            opt.weight,
            report.ledger.total() as f64 / opt.weight.max(1) as f64
        );
    }

    if let Some(path) = args.0.get("save-trace") {
        // A replayed trace keeps its original provenance (workload
        // name + seed); a live run records what just generated it.
        let t = match &loaded {
            Some(orig) => Trace::new(inst, orig.workload.clone(), orig.seed, requests),
            None => Trace::new(inst, report.workload.clone(), scenario.seed, requests),
        };
        t.save(Path::new(path)).unwrap_or_else(|e| {
            fail(format!("cannot save trace: {e}"));
        });
        println!("trace saved to {path}");
    }
}

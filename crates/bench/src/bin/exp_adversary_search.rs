//! **S8** — adversary search: empirical worst-case competitive ratios
//! from randomized hill climbing over adaptive-adversary schedules
//! (see DESIGN.md §15), across the standard model and the two
//! related-work families (online bisection with ring demands; the
//! generalized learning model).
//!
//! For each family × victim × `k` the search
//! ([`rdbp_engine::adversary_search`]) composes the chaser /
//! greedy-cut / separation strategies with hammer mutations and
//! restarts, maximizing `cost / LB` where `LB` is the ringload
//! oracle's certified lower bound on the dynamic optimum — so every
//! reported ratio is a certified empirical competitive ratio. The
//! found schedule is replayed under the family's own cost model
//! ([`rdbp_model::CostModel`]) for the `family cost` column.
//!
//! Two in-binary acceptance checks run on every invocation:
//! * every best ratio is finite and ≥ 1;
//! * at each `k`, the searched worst case over the chaser family (the
//!   standard-model victims) is at least the `exp_lower_bound`
//!   construction's deterministic chase ratio at the same `k`.
//!
//! Knobs: `RDBP_SEARCH_BUDGET` (rollout evaluations per cell, default
//! 16) and `RDBP_SEARCH_SEED` (default 0). The run is a pure function
//! of both — CI's `adversary-smoke` job runs it twice and diffs the
//! outputs byte for byte.

use rdbp_baselines::{learning_weights, FleeToMin, LineStrategy, StayPut, WorkFunctionLine};
use rdbp_bench::{f3, full_profile, parallel_map, results_dir, Table};
use rdbp_engine::{adversary_search, AlgorithmSpec, Registries, SearchConfig};
use rdbp_model::{AuditLevel, CostModel, Driver, FamilyCostObserver, RingInstance};
use rdbp_offline::adversaries::chase_line_strategy;

/// One grid cell: a family, its instance shape, and one victim.
#[derive(Clone)]
struct Cell {
    family: &'static str,
    servers: u32,
    algorithm: AlgorithmSpec,
    k: u32,
}

/// The family's cost model for an instance (the learning table uses
/// the same generator and seed as the registry's `learning` builder,
/// so algorithm and accounting agree on `w(e)`).
fn family_model(family: &str, inst: &RingInstance, seed: u64) -> CostModel {
    match family {
        "bisection" => CostModel::bisection(3),
        "learning" => CostModel::learning(learning_weights(inst.n(), seed)),
        _ => CostModel::standard(),
    }
}

fn env_u64(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    let ks: Vec<u32> = if full_profile() {
        vec![8, 16, 32]
    } else {
        vec![4, 8, 16]
    };
    let budget = env_u64("RDBP_SEARCH_BUDGET", 16);
    let seed = env_u64("RDBP_SEARCH_SEED", 0);

    let mut cells = Vec::new();
    for &k in &ks {
        for victim in ["dynamic", "greedy", "never-move"] {
            cells.push(Cell {
                family: "standard",
                servers: 4,
                algorithm: AlgorithmSpec::named(victim),
                k,
            });
        }
        cells.push(Cell {
            family: "bisection",
            servers: 2,
            algorithm: AlgorithmSpec::named("bisection"),
            k,
        });
        cells.push(Cell {
            family: "learning",
            servers: 4,
            algorithm: AlgorithmSpec::named("learning"),
            k,
        });
    }

    let mut table = Table::new(
        "S8 — adversary search: certified empirical worst-case ratios (cost/LB, ringload oracle)",
        &[
            "family",
            "algorithm",
            "k",
            "best adversary",
            "evals",
            "cost",
            "LB",
            "family cost",
            "ratio",
            "ratio/ln^3 k",
        ],
    );

    let rows = parallel_map(cells, |cell| {
        let inst = RingInstance::packed(cell.servers, cell.k);
        // Long enough that the searched schedule dominates the
        // exp_lower_bound construction at the same k (see the
        // acceptance assert below).
        let steps = 2 * u64::from(cell.k) * u64::from(cell.k);
        let mut config = SearchConfig::new(cell.algorithm.clone(), steps);
        config.budget = budget;
        config.seed = seed;
        let registries = Registries::builtin();
        let outcome = adversary_search(&inst, &config, &registries)
            .expect("S8 grid cells resolve against the built-in registries");
        assert!(
            outcome.best_ratio.is_finite() && outcome.best_ratio >= 1.0,
            "{}/{} k={}: searched ratio {} must be finite and >= 1",
            cell.family,
            cell.algorithm.name,
            cell.k,
            outcome.best_ratio
        );
        // Replay the found schedule under the family's cost model.
        let model = family_model(cell.family, &inst, seed);
        let mut alg = registries
            .algorithms
            .resolve(&cell.algorithm, &inst, seed)
            .expect("resolved once already")
            .algorithm;
        let mut family_obs = FamilyCostObserver::new(model);
        let mut driver = Driver::new(alg.name(), "trace", AuditLevel::None);
        for &request in &outcome.trace {
            driver.step(alg.as_mut(), request, &mut family_obs);
        }
        (cell.clone(), outcome, family_obs.total())
    });

    // Acceptance comparator: the deterministic Ω(k) chase construction
    // from exp_lower_bound at the same k. The construction certifies the
    // *minimum* over its three victims (every deterministic strategy
    // pays at least that much), so that is the bar the search must meet.
    let mut best_standard: Vec<(u32, f64)> = Vec::new();
    for (cell, outcome, family_cost) in &rows {
        if cell.family == "standard" {
            match best_standard.iter_mut().find(|(k, _)| k == &cell.k) {
                Some((_, r)) => *r = r.max(outcome.best_ratio),
                None => best_standard.push((cell.k, outcome.best_ratio)),
            }
        }
        let l3 = f64::from(cell.k).ln().powi(3);
        table.row(vec![
            cell.family.to_string(),
            cell.algorithm.name.clone(),
            cell.k.to_string(),
            outcome.best_adversary.clone(),
            outcome.evaluations.to_string(),
            outcome.best_cost.to_string(),
            f3(outcome.best_lower_bound),
            family_cost.to_string(),
            f3(outcome.best_ratio),
            f3(outcome.best_ratio / l3),
        ]);
    }
    for &(k, searched) in &best_standard {
        let steps = 2 * u64::from(k) * u64::from(k);
        let start = k as usize / 2;
        let construction = [
            {
                let mut s = StayPut::new(start);
                chase_line_strategy(k as usize, start, steps, |req, counts| s.next(req, counts))
            },
            {
                let mut s = FleeToMin::new(start);
                chase_line_strategy(k as usize, start, steps, |req, counts| s.next(req, counts))
            },
            {
                let mut s = WorkFunctionLine::new(k as usize, start);
                chase_line_strategy(k as usize, start, steps, |req, counts| s.next(req, counts))
            },
        ]
        .iter()
        .map(|r| r.online as f64 / r.opt_static.max(1) as f64)
        .fold(f64::INFINITY, f64::min);
        assert!(
            searched >= construction,
            "k={k}: searched worst case {searched:.3} fell below the \
             exp_lower_bound construction {construction:.3}"
        );
        println!("[accept] k={k}: searched {searched:.3} >= construction {construction:.3}");
    }

    table.emit("s8_adversary_search");

    // A machine-readable summary for CI's determinism diff (two runs of
    // this binary must produce byte-identical files).
    let json_rows: Vec<String> = rows
        .iter()
        .map(|(cell, outcome, family_cost)| {
            format!(
                "{{\"family\":\"{}\",\"algorithm\":\"{}\",\"k\":{},\"adversary\":\"{}\",\
                 \"evaluations\":{},\"cost\":{},\"lower_bound\":{},\"family_cost\":{},\
                 \"ratio\":{}}}",
                cell.family,
                cell.algorithm.name,
                cell.k,
                outcome.best_adversary,
                outcome.evaluations,
                outcome.best_cost,
                outcome.best_lower_bound,
                family_cost,
                outcome.best_ratio
            )
        })
        .collect();
    let json = format!(
        "{{\"budget\":{budget},\"seed\":{seed},\"rows\":[{}]}}\n",
        json_rows.join(",")
    );
    let path = results_dir().join("s8_adversary_search.json");
    std::fs::write(&path, json).expect("write s8 json");
    println!("[json] {}", path.display());
}

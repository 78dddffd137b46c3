//! Seeded property battery: the parallel branch & bound must return the
//! same `Solution` — objective, value and best-bound bits, status — for
//! `jobs ∈ {1, 2, 4}` on random knapsack, equality and partitioning-shaped
//! instances, and the serial answer must match brute-force enumeration.
//! Plus a node-limit-under-parallelism check: truncation may change
//! *whether* the limit path is taken, never crash or return an
//! infeasible incumbent.

use cool_ilp::{Cmp, IlpError, Problem, Solution, SolveOptions, Status, VarId};

/// Tiny deterministic xorshift64* generator (the battery must not pull
/// in dependencies; cool_ilp is std-only).
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1)
    }

    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One constraint row as plain data: terms, sense, right-hand side.
type Row = (Vec<(usize, f64)>, Cmp, f64);

/// One battery instance, kept as plain data so brute force can evaluate
/// constraints on arbitrary points (`Problem` exposes no constraint
/// iterator).
struct Instance {
    costs: Vec<f64>,
    constraints: Vec<Row>,
}

impl Instance {
    fn build(&self) -> (Problem, Vec<VarId>) {
        let mut p = Problem::minimize();
        let vars: Vec<VarId> = self.costs.iter().map(|&c| p.add_binary(c)).collect();
        for (terms, cmp, rhs) in &self.constraints {
            let t: Vec<(VarId, f64)> = terms.iter().map(|&(v, a)| (vars[v], a)).collect();
            p.add_constraint(&t, *cmp, *rhs);
        }
        (p, vars)
    }
}

fn brute_force_instance(inst: &Instance) -> Option<f64> {
    let n = inst.costs.len();
    assert!(n <= 16);
    let mut best: Option<f64> = None;
    'outer: for mask in 0u32..(1 << n) {
        let x: Vec<f64> = (0..n).map(|i| f64::from((mask >> i) & 1)).collect();
        for (terms, cmp, rhs) in &inst.constraints {
            let lhs: f64 = terms.iter().map(|&(v, a)| a * x[v]).sum();
            let ok = match cmp {
                Cmp::Le => lhs <= rhs + 1e-9,
                Cmp::Ge => lhs >= rhs - 1e-9,
                Cmp::Eq => (lhs - rhs).abs() < 1e-9,
            };
            if !ok {
                continue 'outer;
            }
        }
        let obj: f64 = x.iter().zip(&inst.costs).map(|(v, c)| v * c).sum();
        if best.map(|b| obj < b).unwrap_or(true) {
            best = Some(obj);
        }
    }
    best
}

/// Random knapsack: small integer costs/weights so exact objective ties
/// between distinct assignments are common — the case the deterministic
/// merge exists for.
fn random_knapsack(rng: &mut Rng, n: usize) -> Instance {
    let costs: Vec<f64> = (0..n).map(|_| -((rng.below(6) + 1) as f64)).collect();
    let weights: Vec<f64> = (0..n).map(|_| (rng.below(5) + 1) as f64).collect();
    let cap = weights.iter().sum::<f64>() * 0.45;
    Instance {
        costs,
        constraints: vec![(weights.iter().copied().enumerate().collect(), Cmp::Le, cap)],
    }
}

/// Random cardinality-constrained instance (equality row).
fn random_equality(rng: &mut Rng, n: usize) -> Instance {
    let costs: Vec<f64> = (0..n).map(|_| rng.below(7) as f64 - 3.0).collect();
    let k = (1 + rng.below((n - 1) as u64)) as f64;
    Instance {
        costs,
        constraints: vec![((0..n).map(|i| (i, 1.0)).collect(), Cmp::Eq, k)],
    }
}

/// Partitioning-shaped instance: items assigned to exactly one of two
/// bins, per-bin capacity rows — the structure of the MILP partitioner.
fn random_partitioning(rng: &mut Rng, items: usize) -> Instance {
    let mut costs = Vec::new();
    let mut constraints: Vec<Row> = Vec::new();
    let mut sizes = Vec::new();
    for i in 0..items {
        // x[i][0], x[i][1] at indices 2i, 2i+1.
        costs.push((rng.below(8) + 1) as f64);
        costs.push((rng.below(8) + 1) as f64);
        constraints.push((vec![(2 * i, 1.0), (2 * i + 1, 1.0)], Cmp::Eq, 1.0));
        sizes.push((rng.below(4) + 1) as f64);
    }
    for bin in 0..2usize {
        let terms: Vec<(usize, f64)> = (0..items).map(|i| (2 * i + bin, sizes[i])).collect();
        let cap = sizes.iter().sum::<f64>() * 0.7;
        constraints.push((terms, Cmp::Le, cap));
    }
    Instance { costs, constraints }
}

fn solve_with_jobs(inst: &Instance, jobs: usize) -> Solution {
    let (p, _) = inst.build();
    p.solve(&SolveOptions {
        jobs,
        ..SolveOptions::default()
    })
    .expect("battery instances are feasible")
}

fn assert_identical(a: &Solution, b: &Solution, what: &str) {
    assert_eq!(
        a.objective.to_bits(),
        b.objective.to_bits(),
        "{what}: objective differs ({} vs {})",
        a.objective,
        b.objective
    );
    let ab: Vec<u64> = a.values.iter().map(|v| v.to_bits()).collect();
    let bb: Vec<u64> = b.values.iter().map(|v| v.to_bits()).collect();
    assert_eq!(ab, bb, "{what}: values differ");
    assert_eq!(a.status, b.status, "{what}: status differs");
    assert_eq!(
        a.best_bound.to_bits(),
        b.best_bound.to_bits(),
        "{what}: best_bound differs"
    );
}

#[test]
fn parallel_equals_serial_on_random_knapsacks() {
    for seed in 0..20u64 {
        let mut rng = Rng::new(seed);
        let n = 6 + rng.below(5) as usize;
        let inst = random_knapsack(&mut rng, n);
        let serial = solve_with_jobs(&inst, 1);
        let expected = brute_force_instance(&inst).expect("knapsacks are feasible");
        assert!(
            (serial.objective - expected).abs() < 1e-6,
            "seed {seed}: serial {} vs brute force {expected}",
            serial.objective
        );
        assert_eq!(serial.status, Status::Optimal);
        for jobs in [2usize, 4] {
            let par = solve_with_jobs(&inst, jobs);
            assert_identical(&serial, &par, &format!("knapsack seed {seed} jobs {jobs}"));
        }
    }
}

#[test]
fn parallel_equals_serial_on_equality_instances() {
    for seed in 100..115u64 {
        let mut rng = Rng::new(seed);
        let n = 5 + rng.below(4) as usize;
        let inst = random_equality(&mut rng, n);
        let serial = solve_with_jobs(&inst, 1);
        let expected = brute_force_instance(&inst).expect("cardinality rows are satisfiable");
        assert!(
            (serial.objective - expected).abs() < 1e-6,
            "seed {seed}: serial {} vs brute force {expected}",
            serial.objective
        );
        assert_eq!(serial.status, Status::Optimal, "seed {seed}");
        for jobs in [2usize, 4] {
            let par = solve_with_jobs(&inst, jobs);
            assert_identical(&serial, &par, &format!("equality seed {seed} jobs {jobs}"));
        }
    }
}

#[test]
fn parallel_equals_serial_on_partitioning_instances() {
    for seed in 200..212u64 {
        let mut rng = Rng::new(seed);
        let items = 3 + rng.below(4) as usize; // 6..=12 binaries
        let inst = random_partitioning(&mut rng, items);
        let serial = solve_with_jobs(&inst, 1);
        let expected = brute_force_instance(&inst).expect("assignment instances are feasible");
        assert!(
            (serial.objective - expected).abs() < 1e-6,
            "seed {seed}: serial {} vs brute force {expected}",
            serial.objective
        );
        assert_eq!(serial.status, Status::Optimal, "seed {seed}");
        for jobs in [2usize, 4] {
            let par = solve_with_jobs(&inst, jobs);
            assert_identical(
                &serial,
                &par,
                &format!("partitioning seed {seed} jobs {jobs}"),
            );
        }
    }
}

#[test]
fn node_limit_under_parallelism_is_sane() {
    // A 16-item knapsack the limit truncates. Under any job count the
    // solver must respect the limit path: either an incumbent with
    // LimitReached (feasible for the constraint), Optimal if it finished
    // within the budget, or NoIncumbent — never a crash or an infeasible
    // "solution".
    let mut rng = Rng::new(7);
    let inst = random_knapsack(&mut rng, 16);
    for jobs in [1usize, 2, 4] {
        let (p, _) = inst.build();
        let sol = p.solve(&SolveOptions {
            max_nodes: 12,
            jobs,
            ..SolveOptions::default()
        });
        match sol {
            Ok(s) => {
                assert!(s.nodes_explored <= 12, "jobs={jobs}");
                let (terms, _, rhs) = &inst.constraints[0];
                let lhs: f64 = terms.iter().map(|&(v, a)| a * s.values[v]).sum();
                assert!(
                    lhs <= rhs + 1e-6,
                    "jobs={jobs}: incumbent violates knapsack"
                );
                for v in &s.values {
                    assert!(
                        (v - v.round()).abs() < 1e-6,
                        "jobs={jobs}: incumbent not integral"
                    );
                }
            }
            Err(IlpError::NoIncumbent) => {}
            Err(e) => panic!("jobs={jobs}: unexpected error {e}"),
        }
    }
    // Sanity: without the limit the instance solves to optimality at
    // every job count, identically.
    let serial = solve_with_jobs(&inst, 1);
    assert_eq!(serial.status, Status::Optimal);
    for jobs in [2usize, 4] {
        assert_identical(&serial, &solve_with_jobs(&inst, jobs), "unlimited 16-item");
    }
}

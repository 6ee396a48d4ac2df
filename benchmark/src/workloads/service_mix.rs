//! `service_mix`: one 32-job batch through `EngineService::queue` +
//! `submit_sources` + `run_batch_report`, over 64 distinct source sets
//! drawn Zipf(1.0) against an `ArtifactCache` of 16 — a working set four
//! times the cache, with jobs too short for the kernels to matter.

use std::sync::Arc;
use std::time::Instant;

use fortrans::{
    ArgVal, ArtifactCache, CompiledProgram, EngineService, ExecMode, ExecTier, Job, JobResult,
    PolicyAction, Session,
};
use fun3d::variants::Fun3dVariant;
use sarb::variants::SarbOutputs;

use super::cold_compile::{f77_seed, glaf_programs, GlafProgram};
use super::{median_ms, refs, warm_up, Metric, OpOutcome, Setup, Workload};
use crate::check::{self, Snapshot};
use crate::host;
use crate::rng::{Rng, Zipf};
use crate::spans::Recorder;
use crate::stats::median;

const SOURCE_SETS: usize = 64;
const CACHE_CAPACITY: usize = 16;
const BATCH_JOBS: usize = 32;
/// Batches in the schedule; batch `i` repeats batch `i % CYCLE`.
const CYCLE: u64 = 32;
/// Warm-up runs the last batches of the cycle: their 256 draws touch far
/// more than 16 distinct sets, so the LRU order they leave behind is the one
/// every later pass through the cycle starts from, and batch `i` meets the
/// same hits and misses on every repetition.
const WARM_UP_OPS: u64 = 8;
const MAX_NCOL: u64 = 4;
const SERVICE_NCELL: i64 = 100;

/// FUN3D jobs need two calls (mesh, then kernel) and a job is one entry
/// point, so the benchmark owns this driver module.
const FUN3D_DRIVER_SRC: &str = r#"
MODULE bench_driver
  USE mesh_mod
  USE jac_kernels
  IMPLICIT NONE
CONTAINS
  SUBROUTINE bench_job(nc)
    INTEGER :: nc
    CALL build_mesh(nc)
    CALL edgejp()
  END SUBROUTINE bench_job
END MODULE bench_driver
"#;

enum Expected {
    /// SARB: the job's `ncol` picks the reference.
    Sarb,
    Fun3d,
    F77(Snapshot),
}

struct SourceSet {
    sources: Vec<String>,
    expected: Expected,
}

/// One job of a batch: which source set, and the SARB column count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct JobPick {
    pub set: usize,
    pub ncol: i64,
}

/// Which source set sits at each popularity rank. The 13 GLAF sets (indices
/// 0..13: five SARB, eight FUN3D) hold every fifth rank from rank 2 in a
/// fixed SARB/FUN3D interleaving and the seed's 51 F77 programs fill the
/// rest, so the mix of cheap and expensive sets under the Zipf curve is the
/// same for every seed; the seed draws the programs and the traffic.
pub fn popularity_order() -> Vec<usize> {
    const GLAF_ORDER: [usize; 13] = [0, 5, 6, 1, 7, 8, 2, 9, 3, 10, 4, 11, 12];
    let (mut glaf, mut f77) = (GLAF_ORDER.iter().copied(), GLAF_ORDER.len()..SOURCE_SETS);
    (0..SOURCE_SETS)
        .map(|rank| match rank % 5 {
            2 => glaf.next().expect("13 GLAF ranks"),
            _ => f77.next().expect("51 F77 ranks"),
        })
        .collect()
}

/// The jobs of batch `i` under `seed`: source sets by Zipf(1.0) rank.
pub fn batch_schedule(seed: u64, popularity: &[usize], zipf: &Zipf, i: u64) -> Vec<JobPick> {
    let mut rng = Rng::new(seed ^ i.wrapping_mul(0xA076_1D64_78BD_642F));
    (0..BATCH_JOBS)
        .map(|_| JobPick {
            set: popularity[zipf.sample(&mut rng)],
            ncol: 1 + rng.below(MAX_NCOL) as i64,
        })
        .collect()
}

pub struct ServiceMix {
    seed: u64,
    sets: Vec<SourceSet>,
    popularity: Vec<usize>,
    zipf: Zipf,
    width: usize,
    service: EngineService,
    /// `sarb_refs[ncol - 1]`.
    sarb_refs: Vec<Vec<f64>>,
    fun3d_ref: Vec<f64>,
    warm_counts: (u64, u64, u64),
    // Traced rounds only:
    traced_batches: u64,
    job_walls_us: Vec<f64>,
    batch_wall_s: f64,
}

impl ServiceMix {
    pub fn set_up(seed: u64, setup: &mut Setup) -> Result<ServiceMix, String> {
        let mut sets: Vec<SourceSet> = setup.step("glaf_sources".into(), || {
            glaf_programs()
                .into_iter()
                .map(|p| match p {
                    GlafProgram::Sarb(v) => SourceSet {
                        sources: sarb::variants::variant_sources(v),
                        expected: Expected::Sarb,
                    },
                    GlafProgram::Fun3d(cfg) => {
                        let mut sources = fun3d::variants::variant_sources(Fun3dVariant::Glaf(cfg));
                        sources.push(FUN3D_DRIVER_SRC.to_string());
                        SourceSet {
                            sources,
                            expected: Expected::Fun3d,
                        }
                    }
                })
                .collect()
        });
        setup.oracle(|| {
            for k in 0..(SOURCE_SETS - sets.len()) as u64 {
                let sources = fortrans::gen::generate(f77_seed(seed, k));
                let artifact = CompiledProgram::compile(&refs(&sources))
                    .map_err(|e| format!("generated F77 set {k} does not compile: {e}"))?;
                let want = Snapshot::run_main(&Session::solo(artifact), ExecTier::TreeWalk);
                sets.push(SourceSet {
                    sources,
                    expected: Expected::F77(want),
                });
            }
            Ok::<_, String>(())
        })?;
        let sarb_refs = setup.oracle(|| {
            (1..=MAX_NCOL as i64)
                .map(|n| check::sarb_reference(n).flat())
                .collect()
        });
        let fun3d_ref = setup.oracle(|| check::fun3d_reference(SERVICE_NCELL));
        let mut w = ServiceMix {
            seed,
            popularity: popularity_order(),
            zipf: Zipf::new(sets.len(), 1.0),
            sets,
            width: host::nproc().min(2),
            service: EngineService::new(CACHE_CAPACITY),
            sarb_refs,
            fun3d_ref,
            warm_counts: (0, 0, 0),
            traced_batches: 0,
            job_walls_us: Vec::new(),
            batch_wall_s: 0.0,
        };
        warm_up(&mut w, CYCLE - WARM_UP_OPS..CYCLE, 1, setup)?;
        let cache = w.service.cache();
        w.warm_counts = (cache.hits(), cache.misses(), cache.evictions());
        Ok(w)
    }

    /// Entry point and arguments of one job.
    fn call(&self, pick: JobPick) -> (&'static str, Vec<ArgVal>) {
        match self.sets[pick.set].expected {
            Expected::Sarb => ("run_columns", vec![ArgVal::I(pick.ncol)]),
            Expected::Fun3d => ("bench_job", vec![ArgVal::I(SERVICE_NCELL)]),
            Expected::F77(_) => ("main", vec![]),
        }
    }

    fn check_job(&self, pick: JobPick, jr: &JobResult) -> Result<(), String> {
        if jr.action != PolicyAction::Completed {
            return Err(format!("verdict {} instead of completed", jr.action));
        }
        let session = jr
            .session
            .as_ref()
            .ok_or("job was refused before a session existed")?;
        match (&self.sets[pick.set].expected, &jr.result) {
            (_, Err(e)) => Err(format!("job failed: {e}")),
            (Expected::Sarb, Ok(_)) => check::bits_equal(
                "sarb outputs",
                &SarbOutputs::read(session).flat(),
                &self.sarb_refs[pick.ncol as usize - 1],
            ),
            (Expected::Fun3d, Ok(_)) => {
                check::bits_equal("mesh_mod::jac", &check::read_jac(session), &self.fun3d_ref)
            }
            (Expected::F77(want), Ok(out)) => {
                Snapshot::capture(session, Ok((out.result, out.printed.clone()))).matches(want)
            }
        }
    }
}

impl Workload for ServiceMix {
    fn first_op(&self) -> u64 {
        0
    }

    fn cycle(&self) -> u64 {
        CYCLE
    }

    fn op(&mut self, i: u64, rec: &Recorder) -> OpOutcome {
        let i = i % CYCLE;
        let picks = batch_schedule(self.seed, &self.popularity, &self.zipf, i);
        let jobs: Vec<Job> = picks
            .iter()
            .map(|&p| {
                let (entry, args) = self.call(p);
                Job::new(entry, args)
            })
            .collect();
        let t = Instant::now();
        let mut queue = rec.span("service.queue", || self.service.queue(self.width));
        rec.span("queue.submit_sources", || {
            for (pick, job) in picks.iter().zip(jobs) {
                queue.submit_sources(&refs(&self.sets[pick.set].sources), job);
            }
        });
        let report = rec.span("queue.run_batch_report", || queue.run_batch_report());
        let timed = t.elapsed();
        if rec.enabled() {
            self.traced_batches += 1;
            self.batch_wall_s += report.wall.as_secs_f64();
            for jr in &report.results {
                self.job_walls_us.push(jr.wall.as_secs_f64() * 1e6);
            }
        }
        let check = if report.results.len() == picks.len() {
            picks
                .iter()
                .zip(&report.results)
                .enumerate()
                .try_for_each(|(j, (&pick, jr))| {
                    self.check_job(pick, jr)
                        .map_err(|e| format!("batch {i} job {j} (set {}): {e}", pick.set))
                })
        } else {
            Err(format!(
                "batch {i}: {} results for {} jobs",
                report.results.len(),
                picks.len()
            ))
        };
        OpOutcome { timed, check }
    }

    fn counts(&self) -> Vec<(String, f64)> {
        let (hits, misses, evictions) = self.warm_counts;
        vec![
            ("warmup_cache_hits".into(), hits as f64),
            ("warmup_cache_misses".into(), misses as f64),
            ("warmup_cache_evictions".into(), evictions as f64),
        ]
    }

    fn layer_metrics(&mut self, rec: &Recorder) -> Vec<Metric> {
        let cache = self.service.cache();
        let (hit_ratio, evictions, bytes) = (cache.hit_rate(), cache.evictions(), cache.bytes());
        let jobs_per_s = (self.traced_batches as usize * BATCH_JOBS) as f64 / self.batch_wall_s;
        let job_wall_s = self.job_walls_us.iter().sum::<f64>() / 1e6;
        let setup_share = 1.0 - job_wall_s / self.width as f64 / self.batch_wall_s;

        // A lookup that hits: the most recently used set is resident.
        let hot = refs(&self.sets[self.popularity[0]].sources);
        self.service.compile(&hot).expect("hot set compiles");
        let hit_us = rec.span("probe.service.cache_hit", || {
            median_ms(50, || drop(self.service.compile(&hot))) * 1e3
        });
        // A lookup that misses: two sets alternating through a cache of one.
        let miss_us = rec.span("probe.service.cache_miss", || {
            let tiny = ArtifactCache::new(1);
            let pair = [
                &self.sets[SOURCE_SETS - 1].sources,
                &self.sets[SOURCE_SETS - 2].sources,
            ];
            let mut k = 0;
            median_ms(20, || {
                drop(tiny.get_or_compile(&refs(pair[k % 2])));
                k += 1;
            }) * 1e3
        });
        let artifact = self.service.compile(&hot).expect("hot set compiles");
        let session_new_us = rec.span("probe.service.session_new", || {
            median_ms(50, || drop(self.service.session_for(&artifact))) * 1e3
        });

        // The same batches on warm direct sessions: artifacts compiled
        // beforehand, one fresh session per job, no queue, no cache.
        let batch_over_direct = rec.span("probe.service.batch_over_direct", || {
            let ratios: Vec<f64> = (0..5)
                .map(|i| {
                    let picks = batch_schedule(self.seed, &self.popularity, &self.zipf, i);
                    let artifacts: Vec<Arc<CompiledProgram>> = picks
                        .iter()
                        .map(|p| {
                            CompiledProgram::compile(&refs(&self.sets[p.set].sources))
                                .expect("set compiles")
                        })
                        .collect();
                    let t = Instant::now();
                    for (pick, artifact) in picks.iter().zip(&artifacts) {
                        let session = Session::solo(Arc::clone(artifact));
                        let (entry, args) = self.call(*pick);
                        session
                            .run(entry, &args, ExecMode::Serial)
                            .expect("direct job runs");
                    }
                    let direct = t.elapsed();
                    self.op(i, &Recorder::new(false)).timed.as_secs_f64() / direct.as_secs_f64()
                })
                .collect();
            median(&ratios)
        });

        vec![
            ("service.cache_hit_us".into(), hit_us),
            ("service.cache_miss_us".into(), miss_us),
            ("service.cache_hit_ratio".into(), hit_ratio),
            ("service.cache_evictions".into(), evictions as f64),
            ("service.cache_bytes".into(), bytes as f64),
            ("service.session_new_us".into(), session_new_us),
            ("service.job_wall_us_p50".into(), median(&self.job_walls_us)),
            ("service.jobs_per_s".into(), jobs_per_s),
            ("service.setup_share".into(), setup_share),
            ("service.batch_over_direct".into(), batch_over_direct),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn popularity_order_places_every_set_once_with_glaf_on_fixed_ranks() {
        let order = popularity_order();
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..SOURCE_SETS).collect::<Vec<_>>());
        for (rank, &set) in order.iter().enumerate() {
            assert_eq!(set < 13, rank % 5 == 2, "rank {rank} holds set {set}");
        }
    }

    #[test]
    fn batch_schedule_is_reproducible_from_the_seed() {
        let (order, zipf) = (popularity_order(), Zipf::new(SOURCE_SETS, 1.0));
        let batch = |seed, i| batch_schedule(seed, &order, &zipf, i);
        assert_eq!(batch(7, 3), batch(7, 3));
        assert_ne!(batch(7, 3), batch(7, 4));
        assert_ne!(batch(7, 3), batch(8, 3));
        for pick in batch(7, 3) {
            assert!(pick.set < SOURCE_SETS && (1..=MAX_NCOL as i64).contains(&pick.ncol));
        }
        assert_eq!(batch(7, 3).len(), BATCH_JOBS);
    }
}

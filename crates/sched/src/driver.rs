//! Framework-owned variant drivers: a kernel writes its tile function
//! once, the framework runs it as `seq`, `tiled`, `omp` or `omp_tiled`.
//!
//! The paper's Figs. 1–2 show `seq` and `omp_tiled` as the same
//! `do_tile` loop nest under two drivers. [`run_variant`] is that split:
//! the kernel supplies the loop nest as a [`TileFn`] over a
//! [`TileWriter`] plus a per-iteration hook (zoom, angle, image swap,
//! convergence), and the [`Driver`] decides which tiles exist and who
//! runs them:
//!
//! | driver | tiles | run by |
//! |--------|-------|--------|
//! | [`Driver::Seq`] | the whole image as one tile | the calling thread |
//! | [`Driver::Tiled`] | `ctx.grid` | the calling thread |
//! | [`Driver::Omp`] | one tile per image row | the pool, `ctx.cfg.schedule` |
//! | [`Driver::OmpTiled`] | `ctx.grid` | the pool, `ctx.cfg.schedule` |
//!
//! Every tile is bracketed by the probe's `start_tile`/`end_tile`, so a
//! `seq` run shows one bracket per iteration and the others one per tile.
//!
//! ## Why the tile function is a `dyn Fn`
//!
//! The body is passed as `&dyn Fn`, not as a generic closure, so that it
//! is compiled exactly once: every driver runs the same machine code, at
//! the price of one indirect call per tile. A generic body is inlined
//! into each driver's loop, and LLVM optimises each copy on its own.
//! Inlined into the pool's region closure, mandel's escape loop had its
//! `(zx, zy)` pair SLP-packed into one SSE register and paid two
//! shuffles per iteration: `omp_tiled` at one thread ran 1.27× slower
//! than `seq` on the same loop.

use crate::img_cell::{ImgCell, TileWriter};
use crate::mux::{acquire_pool, PoolHandle};
use crate::parallel::parallel_for_tiles;
use ezp_core::error::Result;
use ezp_core::kernel::{KernelCtx, Probe};
use ezp_core::{ImagePair, Img2D, Schedule, TileGrid};
use std::sync::atomic::{AtomicBool, Ordering};

/// Which tiles a variant computes, and on which threads (see the module
/// table).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Driver {
    /// The whole image as one tile, on the calling thread.
    Seq,
    /// The context's tile grid, on the calling thread.
    Tiled,
    /// One tile per image row, scheduled over the pool.
    Omp,
    /// The context's tile grid, scheduled over the pool.
    OmpTiled,
}

/// A kernel's tile function: computes the tile of its writer and
/// reports whether anything changed (the convergence test of the
/// simulation kernels; kernels that never converge return `true`).
pub type TileFn<'a, T> = dyn Fn(&mut TileWriter<'_, '_, T>) -> bool + Sync + 'a;

/// A driver bound to one run: the tiles to visit, the probe, and the
/// pool for the parallel drivers. The per-iteration hook of
/// [`run_variant`] calls [`Sweep::tiles`] to run the tile function.
pub struct Sweep<'r> {
    grid: TileGrid,
    schedule: Schedule,
    probe: &'r dyn Probe,
    pool: Option<PoolHandle>,
}

impl Sweep<'_> {
    /// Runs `body` once per tile of `img` under this sweep's driver;
    /// returns whether any call reported a change.
    pub fn tiles<T: Copy + Send + Sync>(
        &mut self,
        img: &mut Img2D<T>,
        body: &TileFn<'_, T>,
    ) -> bool {
        let cell = ImgCell::new(img);
        let Some(pool) = self.pool.as_mut() else {
            let mut changed = false;
            for tile in self.grid.iter() {
                self.probe.start_tile(0);
                changed |= body(&mut cell.tile_writer(tile));
                self.probe.end_tile(tile.x, tile.y, tile.w, tile.h, 0);
            }
            return changed;
        };
        let changed = AtomicBool::new(false);
        parallel_for_tiles(pool, &self.grid, self.schedule, self.probe, |tile, _| {
            // ORDERING: Relaxed — the flag is read after the region's
            // closing barrier, which orders every worker's store.
            if body(&mut cell.tile_writer(tile)) {
                changed.store(true, Ordering::Relaxed);
            }
        });
        changed.into_inner()
    }
}

/// Runs `nb_iter` iterations of a variant under `driver`.
///
/// Each iteration is bracketed by the probe's `iteration_start`/
/// `iteration_end` and calls `iteration` once with the sweep and the
/// context's image pair. The hook runs the kernel's tile function
/// through [`Sweep::tiles`], then does the kernel's between-iterations
/// work, and returns whether the iteration changed anything: `false`
/// stops the run at that iteration, reported as `Some(it)` (EASYPAP's
/// early-termination convention); `None` means every iteration ran.
pub fn run_variant(
    ctx: &mut KernelCtx,
    driver: Driver,
    nb_iter: u32,
    mut iteration: impl FnMut(&mut Sweep<'_>, &mut ImagePair) -> bool,
) -> Result<Option<u32>> {
    let dim = ctx.dim();
    let grid = match driver {
        Driver::Seq => TileGrid::new(dim, dim, dim, dim)?,
        Driver::Omp => TileGrid::new(dim, dim, dim, 1)?,
        Driver::Tiled | Driver::OmpTiled => ctx.grid,
    };
    let pool =
        matches!(driver, Driver::Omp | Driver::OmpTiled).then(|| acquire_pool(ctx.threads()));
    let KernelCtx {
        cfg, images, probe, ..
    } = ctx;
    let mut sweep = Sweep {
        grid,
        schedule: cfg.schedule,
        probe: &**probe,
        pool,
    };
    for it in 1..=nb_iter {
        probe.iteration_start(it);
        let changed = iteration(&mut sweep, images);
        probe.iteration_end(it);
        if !changed {
            return Ok(Some(it));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::{RunConfig, Tile, WorkerId};
    use std::sync::atomic::AtomicUsize;
    use std::sync::{Arc, Mutex};

    const DRIVERS: [Driver; 4] = [Driver::Seq, Driver::Tiled, Driver::Omp, Driver::OmpTiled];

    fn policies() -> [Schedule; 5] {
        [
            Schedule::Static,
            Schedule::StaticChunk(2),
            Schedule::Dynamic(1),
            Schedule::Guided(1),
            Schedule::NonmonotonicDynamic(1),
        ]
    }

    /// Records every probe bracket as `(worker, tile rectangle)`.
    #[derive(Default)]
    struct Brackets {
        open: AtomicUsize,
        closed: Mutex<Vec<(WorkerId, (usize, usize, usize, usize))>>,
        iterations: AtomicUsize,
    }

    impl Probe for Brackets {
        fn iteration_start(&self, _: u32) {
            self.iterations.fetch_add(1, Ordering::Relaxed);
        }
        fn start_tile(&self, _: WorkerId) {
            self.open.fetch_add(1, Ordering::Relaxed);
        }
        fn end_tile(&self, x: usize, y: usize, w: usize, h: usize, worker: WorkerId) {
            self.closed.lock().unwrap().push((worker, (x, y, w, h)));
        }
    }

    fn ctx(
        dim: usize,
        tile: usize,
        threads: usize,
        schedule: Schedule,
        probe: Arc<Brackets>,
    ) -> KernelCtx {
        KernelCtx::new(
            RunConfig::new("test")
                .size(dim)
                .tile(tile)
                .threads(threads)
                .schedule(schedule),
        )
        .unwrap()
        .with_probe(probe)
    }

    fn rect(t: &Tile) -> (usize, usize, usize, usize) {
        (t.x, t.y, t.w, t.h)
    }

    /// The tile rectangles a driver must visit per iteration, in the
    /// order the sequential drivers visit them.
    fn expected_tiles(driver: Driver, c: &KernelCtx) -> Vec<(usize, usize, usize, usize)> {
        let dim = c.dim();
        match driver {
            Driver::Seq => vec![(0, 0, dim, dim)],
            Driver::Omp => (0..dim).map(|y| (0, y, dim, 1)).collect(),
            Driver::Tiled | Driver::OmpTiled => c.grid.iter().map(|t| rect(&t)).collect(),
        }
    }

    #[test]
    fn every_driver_calls_the_body_once_per_tile_with_matching_brackets() {
        let iters = 3;
        for driver in DRIVERS {
            for schedule in policies() {
                let probe = Arc::new(Brackets::default());
                // ragged grid: 20 is not a multiple of 8
                let mut c = ctx(20, 8, 3, schedule, probe.clone());
                let want = expected_tiles(driver, &c);
                let calls = Mutex::new(Vec::new());
                let mut img: Img2D<u32> = Img2D::square(20);
                let conv = run_variant(&mut c, driver, iters, |sweep, _| {
                    sweep.tiles(&mut img, &|w| {
                        calls.lock().unwrap().push(w.tile());
                        true
                    })
                })
                .unwrap();
                assert_eq!(conv, None, "{driver:?}");
                let mut got: Vec<_> = calls.into_inner().unwrap().iter().map(rect).collect();
                let mut expected: Vec<_> = want
                    .iter()
                    .copied()
                    .cycle()
                    .take(want.len() * iters as usize)
                    .collect();
                if matches!(driver, Driver::Seq | Driver::Tiled) {
                    // the sequential drivers keep `collapse(2)` order
                    assert_eq!(got, expected, "{driver:?} {schedule:?}");
                }
                got.sort_unstable();
                expected.sort_unstable();
                assert_eq!(got, expected, "{driver:?} {schedule:?}: body calls");
                // one probe bracket per body call, same rectangles
                let closed = probe.closed.lock().unwrap();
                assert_eq!(probe.open.load(Ordering::Relaxed), closed.len());
                let mut brackets: Vec<_> = closed.iter().map(|&(_, r)| r).collect();
                brackets.sort_unstable();
                assert_eq!(brackets, expected, "{driver:?} {schedule:?}: brackets");
                assert_eq!(probe.iterations.load(Ordering::Relaxed), iters as usize);
                if matches!(driver, Driver::Seq | Driver::Tiled) {
                    assert!(
                        closed.iter().all(|&(w, _)| w == 0),
                        "{driver:?} left rank 0"
                    );
                } else {
                    assert!(
                        closed.iter().all(|&(w, _)| w < 3),
                        "{driver:?} rank out of range"
                    );
                }
            }
        }
    }

    #[test]
    fn every_driver_paints_every_pixel_exactly_once() {
        for driver in DRIVERS {
            let mut c = ctx(64, 16, 4, Schedule::NonmonotonicDynamic(1), Arc::default());
            let mut img: Img2D<u32> = Img2D::square(64);
            run_variant(&mut c, driver, 1, |sweep, _| {
                sweep.tiles(&mut img, &|w| {
                    let t = w.tile();
                    for y in t.y..t.y + t.h {
                        for (i, p) in w.row_mut(y).iter_mut().enumerate() {
                            *p += (t.x + i + 64 * y) as u32 + 1;
                        }
                    }
                    true
                })
            })
            .unwrap();
            for y in 0..64 {
                for x in 0..64 {
                    assert_eq!(img.get(x, y), (x + 64 * y) as u32 + 1, "{driver:?}");
                }
            }
        }
    }

    #[test]
    fn an_unchanged_iteration_stops_the_run() {
        for driver in DRIVERS {
            let probe = Arc::new(Brackets::default());
            let mut c = ctx(16, 8, 2, Schedule::Dynamic(1), probe.clone());
            let mut img: Img2D<u32> = Img2D::square(16);
            let mut it = 0;
            let conv = run_variant(&mut c, driver, 10, |sweep, _| {
                it += 1;
                // only the bottom-right tile changes, and only in the
                // first two iterations
                let live = it <= 2;
                sweep.tiles(&mut img, &|w| {
                    live && w.tile().y + w.tile().h == 16 && w.tile().x + w.tile().w == 16
                })
            })
            .unwrap();
            assert_eq!(conv, Some(3), "{driver:?}");
            assert_eq!(probe.iterations.load(Ordering::Relaxed), 3);
        }
    }
}

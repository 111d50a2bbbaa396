//! The Abelian sandpile kernel (paper §II-A).
//!
//! Cells hold grains of sand; any cell with 4 or more grains topples,
//! sending one grain to each 4-neighbour. The synchronous (Jacobi)
//! update used here double-buffers the grain counts, so tiles can be
//! computed in parallel without ordering constraints; the final stable
//! configuration of the abelian sandpile is famously independent of the
//! toppling order, which the tests exploit.

use ezp_core::error::{Error, Result};
use ezp_core::{Img2D, Kernel, KernelCtx, Rgba};
use ezp_sched::{run_variant, Driver, TileWriter};

/// The tile function: one synchronous sandpile step of the writer's
/// tile, `next = cur - 4*(cur>=4) + incoming topples`. Returns true when
/// the tile changed.
fn step_tile(cur: &Img2D<u32>, w: &mut TileWriter<'_, '_, u32>) -> bool {
    let t = w.tile();
    let (width, height) = (cur.width(), cur.height());
    let mut changed = false;
    for y in t.y..t.y + t.h {
        for (i, p) in w.row_mut(y).iter_mut().enumerate() {
            let x = t.x + i;
            let old = cur.get(x, y);
            let mut v = old;
            if v >= 4 {
                v -= 4;
            }
            let mut incoming = 0;
            if x > 0 && cur.get(x - 1, y) >= 4 {
                incoming += 1;
            }
            if x + 1 < width && cur.get(x + 1, y) >= 4 {
                incoming += 1;
            }
            if y > 0 && cur.get(x, y - 1) >= 4 {
                incoming += 1;
            }
            if y + 1 < height && cur.get(x, y + 1) >= 4 {
                incoming += 1;
            }
            let new = v + incoming;
            changed |= new != old;
            *p = new;
        }
    }
    changed
}

/// Grain count → display color (0..3 stable shades, ≥4 bright red).
pub fn grain_color(grains: u32) -> Rgba {
    match grains {
        0 => Rgba::BLACK,
        1 => Rgba::new(40, 40, 120, 255),
        2 => Rgba::new(60, 120, 180, 255),
        3 => Rgba::new(220, 200, 80, 255),
        _ => Rgba::new(255, 60, 40, 255),
    }
}

/// The sandpile kernel: double-buffered grain grids.
pub struct Sandpile {
    cur: Img2D<u32>,
    next: Img2D<u32>,
}

impl Default for Sandpile {
    fn default() -> Self {
        Sandpile {
            cur: Img2D::new(0, 0),
            next: Img2D::new(0, 0),
        }
    }
}

impl Sandpile {
    /// Read access to the grain grid (tests, examples).
    pub fn grains(&self) -> &Img2D<u32> {
        &self.cur
    }

    /// True when no cell can topple.
    pub fn is_stable(&self) -> bool {
        self.cur.as_slice().iter().all(|&v| v < 4)
    }

    /// Asynchronous (Gauss-Seidel) toppling: cells topple *in place*
    /// during the sweep, so an avalanche can travel the whole grid in
    /// one iteration. The abelian property of the sandpile guarantees
    /// the same final stable configuration as the synchronous scheme —
    /// a striking invariant the tests pin down (EASYPAP ships the same
    /// pair as `ssandPile` / `asandPile`).
    fn compute_async(&mut self, ctx: &mut KernelCtx, nb_iter: u32) -> Option<u32> {
        let dim = ctx.dim();
        for it in 1..=nb_iter {
            ctx.probe.iteration_start(it);
            ctx.probe.start_tile(0);
            let mut changed = false;
            for y in 0..dim {
                for x in 0..dim {
                    let v = self.cur.get(x, y);
                    if v >= 4 {
                        let q = v / 4;
                        self.cur.set(x, y, v % 4);
                        if x > 0 {
                            self.cur.set(x - 1, y, self.cur.get(x - 1, y) + q);
                        }
                        if x + 1 < dim {
                            self.cur.set(x + 1, y, self.cur.get(x + 1, y) + q);
                        }
                        if y > 0 {
                            self.cur.set(x, y - 1, self.cur.get(x, y - 1) + q);
                        }
                        if y + 1 < dim {
                            self.cur.set(x, y + 1, self.cur.get(x, y + 1) + q);
                        }
                        changed = true;
                    }
                }
            }
            ctx.probe.end_tile(0, 0, dim, dim, 0);
            ctx.probe.iteration_end(it);
            if !changed {
                return Some(it);
            }
        }
        None
    }
}

impl Kernel for Sandpile {
    fn name(&self) -> &'static str {
        "sandpile"
    }

    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "async", "omp_tiled"]
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let dim = ctx.dim();
        self.cur = Img2D::new(dim, dim);
        self.next = Img2D::new(dim, dim);
        // --arg N drops N grains in the center (default: a big central pile)
        let grains: u32 = match &ctx.cfg.kernel_arg {
            Some(a) => a
                .parse()
                .map_err(|_| Error::Config(format!("sandpile: bad grain count `{a}`")))?,
            None => (dim * dim / 4) as u32,
        };
        self.cur.set(dim / 2, dim / 2, grains);
        self.refresh_image(ctx)
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        let driver = match variant {
            "seq" => Driver::Tiled,
            "async" => return Ok(self.compute_async(ctx, nb_iter)),
            "omp_tiled" => Driver::OmpTiled,
            other => return Err(crate::unknown_variant("sandpile", other)),
        };
        run_variant(ctx, driver, nb_iter, |sweep, _| {
            let cur = &self.cur;
            let changed = sweep.tiles(&mut self.next, &|w| step_tile(cur, w));
            std::mem::swap(&mut self.cur, &mut self.next);
            changed
        })
    }

    fn refresh_image(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        let img = ctx.images.cur_mut();
        for y in 0..img.height() {
            for x in 0..img.width() {
                img.set(x, y, grain_color(self.cur.get(x, y)));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::RunConfig;

    fn run(variant: &str, dim: usize, grains: u32, iters: u32) -> (Sandpile, Option<u32>) {
        let mut cfg = RunConfig::new("sandpile").size(dim).tile(8).threads(3);
        cfg.kernel_arg = Some(grains.to_string());
        let mut ctx = KernelCtx::new(cfg).unwrap();
        let mut k = Sandpile::default();
        k.init(&mut ctx).unwrap();
        let conv = k.compute(&mut ctx, variant, iters).unwrap();
        (k, conv)
    }

    #[test]
    fn grains_are_conserved_on_interior_topples() {
        // few grains, nothing reaches the border: total is conserved
        let (k, conv) = run("seq", 32, 100, 1000);
        assert!(conv.is_some(), "small pile must stabilize");
        let total: u32 = k.grains().as_slice().iter().sum();
        assert_eq!(total, 100);
        assert!(k.is_stable());
    }

    #[test]
    fn stable_configuration_has_no_cell_above_3() {
        let (k, conv) = run("seq", 32, 500, 5000);
        assert!(conv.is_some());
        assert!(k.grains().as_slice().iter().all(|&v| v < 4));
    }

    #[test]
    fn parallel_matches_seq() {
        let (a, ca) = run("seq", 32, 300, 200);
        let (b, cb) = run("omp_tiled", 32, 300, 200);
        assert_eq!(a.grains(), b.grains());
        assert_eq!(ca, cb);
    }

    #[test]
    fn final_pile_is_symmetric() {
        // the sandpile identity: a centered pile stabilizes to a
        // 4-fold-symmetric pattern
        let (k, conv) = run("seq", 33, 400, 5000); // odd dim: exact center
        assert!(conv.is_some());
        let g = k.grains();
        for y in 0..33 {
            for x in 0..33 {
                assert_eq!(g.get(x, y), g.get(32 - x, y));
                assert_eq!(g.get(x, y), g.get(x, 32 - y));
            }
        }
    }

    #[test]
    fn abelian_property_async_equals_sync() {
        // the final stable configuration is independent of toppling
        // order — Gauss-Seidel and Jacobi agree exactly
        let (sync, cs) = run("seq", 33, 400, 5000);
        let (asynchronous, ca) = run("async", 33, 400, 5000);
        assert!(cs.is_some() && ca.is_some());
        assert_eq!(sync.grains(), asynchronous.grains());
        // and the async scheme needs (far) fewer iterations
        assert!(ca.unwrap() <= cs.unwrap());
    }

    #[test]
    fn async_conserves_interior_grains() {
        let (k, conv) = run("async", 32, 100, 1000);
        assert!(conv.is_some());
        let total: u32 = k.grains().as_slice().iter().sum();
        assert_eq!(total, 100);
    }

    #[test]
    fn zero_grains_converges_immediately() {
        let (_, conv) = run("omp_tiled", 16, 0, 10);
        assert_eq!(conv, Some(1));
    }

    #[test]
    fn grain_colors_are_distinct() {
        let colors: Vec<Rgba> = (0..5).map(grain_color).collect();
        for i in 0..5 {
            for j in (i + 1)..5 {
                assert_ne!(colors[i], colors[j]);
            }
        }
    }
}

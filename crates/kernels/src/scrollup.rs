//! The Scrollup kernel: the image scrolls up one row per iteration
//! (wrapping) — EASYPAP's minimal animated kernel, the typical target
//! of the very first hands-on session.

use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx};
use ezp_sched::{run_variant, Driver};

/// The scrollup kernel.
#[derive(Default)]
pub struct Scrollup;

impl Kernel for Scrollup {
    fn name(&self) -> &'static str {
        "scrollup"
    }

    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "omp_tiled"]
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        crate::shapes::test_card(ctx.images.cur_mut());
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        let driver = match variant {
            "seq" => Driver::Seq,
            "omp_tiled" => Driver::OmpTiled,
            other => return Err(crate::unknown_variant("scrollup", other)),
        };
        let dim = ctx.dim();
        run_variant(ctx, driver, nb_iter, |sweep, images| {
            let (src, dst) = images.rw();
            sweep.tiles(dst, &|w| {
                let t = w.tile();
                for y in t.y..t.y + t.h {
                    let from = &src.row((y + 1) % dim)[t.x..t.x + t.w];
                    w.row_mut(y).copy_from_slice(from);
                }
                true
            });
            images.swap();
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::{Rgba, RunConfig};

    fn run(variant: &str, dim: usize, iters: u32) -> Vec<Rgba> {
        let mut ctx =
            KernelCtx::new(RunConfig::new("scrollup").size(dim).tile(8).threads(2)).unwrap();
        let mut k = Scrollup;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn one_scroll_shifts_rows_up() {
        let dim = 16;
        let out = run("seq", dim, 1);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        for y in 0..dim {
            for x in 0..dim {
                assert_eq!(out[y * dim + x], original.get(x, (y + 1) % dim));
            }
        }
    }

    #[test]
    fn dim_scrolls_are_identity() {
        let dim = 12;
        let out = run("omp_tiled", dim, dim as u32);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        assert_eq!(out, original.as_slice());
    }

    #[test]
    fn variants_agree() {
        assert_eq!(run("seq", 24, 5), run("omp_tiled", 24, 5));
    }
}

//! The Transpose kernel (paper §II-A): `next(x, y) = cur(y, x)`.
//!
//! The interesting parallel aspect is memory access: a tile `(tx, ty)`
//! of the destination reads tile `(ty, tx)` of the source, so tiled
//! execution turns a strided full-image sweep into cache-friendly
//! blocked accesses (which `ezp-cache` can quantify).

use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx};
use ezp_sched::{run_variant, Driver};

/// The transpose kernel.
#[derive(Default)]
pub struct Transpose;

impl Kernel for Transpose {
    fn name(&self) -> &'static str {
        "transpose"
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
            other => return Err(crate::unknown_variant("transpose", other)),
        };
        run_variant(ctx, driver, nb_iter, |sweep, images| {
            let (src, dst) = images.rw();
            sweep.tiles(dst, &|w| {
                let t = w.tile();
                for y in t.y..t.y + t.h {
                    for (i, p) in w.row_mut(y).iter_mut().enumerate() {
                        *p = src.get(y, t.x + i);
                    }
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

    fn run(variant: &str, dim: usize, tile: usize, iters: u32) -> Vec<Rgba> {
        let mut ctx = KernelCtx::new(RunConfig::new("transpose").size(dim).tile(tile).threads(3)).unwrap();
        let mut k = Transpose;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn single_transpose_flips_coordinates() {
        let dim = 32;
        let out = run("seq", dim, 8, 1);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        for y in 0..dim {
            for x in 0..dim {
                assert_eq!(out[y * dim + x], original.get(y, x));
            }
        }
    }

    #[test]
    fn double_transpose_is_identity() {
        let dim = 24;
        let out = run("omp_tiled", dim, 8, 2);
        let mut original = ezp_core::Img2D::square(dim);
        crate::shapes::test_card(&mut original);
        assert_eq!(out, original.as_slice());
    }

    #[test]
    fn tiled_matches_seq_with_ragged_tiles() {
        assert_eq!(run("omp_tiled", 30, 7, 3), run("seq", 30, 7, 3));
    }
}

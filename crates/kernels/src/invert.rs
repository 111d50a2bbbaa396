//! The Invert kernel (paper §II-A): per-pixel RGB complement — the
//! "hello world" of EASYPAP variants, embarrassingly parallel and
//! memory-bound.

use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx, Rgba};
use ezp_gpu::{NdRange, VirtualDevice};
use ezp_sched::{run_variant, Driver};

/// RGB complement, alpha preserved.
#[inline]
pub fn invert_pixel(p: Rgba) -> Rgba {
    Rgba(p.0 ^ 0xffff_ff00)
}

/// The invert kernel.
#[derive(Default)]
pub struct Invert;

impl Kernel for Invert {
    fn name(&self) -> &'static str {
        "invert"
    }

    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "omp", "gpu"]
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        crate::shapes::test_card(ctx.images.cur_mut());
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        let driver = match variant {
            "seq" => Driver::Seq,
            // row-shaped tiles, like `#pragma omp parallel for` over lines
            "omp" => Driver::Omp,
            "gpu" => return self.compute_gpu(ctx, nb_iter).map(|()| None),
            other => return Err(crate::unknown_variant("invert", other)),
        };
        run_variant(ctx, driver, nb_iter, |sweep, images| {
            sweep.tiles(images.cur_mut(), &|w| {
                let t = w.tile();
                for y in t.y..t.y + t.h {
                    for p in w.row_mut(y) {
                        *p = invert_pixel(*p);
                    }
                }
                true
            })
        })
    }
}

impl Invert {
    /// OpenCL-style variant on the virtual device.
    fn compute_gpu(&self, ctx: &mut KernelCtx, nb_iter: u32) -> Result<()> {
        let dim = ctx.dim();
        let device = VirtualDevice::new(ctx.threads());
        for it in 1..=nb_iter {
            ctx.probe.iteration_start(it);
            let range = NdRange {
                global: (dim, dim),
                local: (ctx.cfg.tile_size, ctx.cfg.tile_size),
            };
            let (out, _) = device.launch(range, ctx.images.cur(), |x, y, src| invert_pixel(src.get(x, y)))?;
            ctx.images.cur_mut().copy_from(&out);
            ctx.probe.iteration_end(it);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::RunConfig;

    fn run(variant: &str, iters: u32) -> Vec<Rgba> {
        let mut ctx = KernelCtx::new(RunConfig::new("invert").size(32).tile(8).threads(2)).unwrap();
        let mut k = Invert;
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn invert_pixel_complements_rgb_keeps_alpha() {
        let p = Rgba::new(10, 200, 0, 123);
        let q = invert_pixel(p);
        assert_eq!((q.r(), q.g(), q.b(), q.a()), (245, 55, 255, 123));
        assert_eq!(invert_pixel(q), p);
    }

    #[test]
    fn variants_agree() {
        let seq = run("seq", 1);
        assert_eq!(run("omp", 1), seq);
        assert_eq!(run("gpu", 1), seq);
    }

    #[test]
    fn double_invert_is_identity() {
        let mut original = ezp_core::Img2D::square(32);
        crate::shapes::test_card(&mut original);
        assert_eq!(run("omp", 2), original.as_slice());
    }
}

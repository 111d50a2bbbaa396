//! The Spin kernel — EASYPAP's compute-bound demo: a color wheel whose
//! hue field rotates a little every iteration. Every pixel costs the
//! same (pure trigonometry, no memory traffic to speak of), making spin
//! the *balanced* counterpoint to `mandel`: static scheduling is already
//! optimal here, which students discover by comparing the two.

use ezp_core::color::hsv_to_rgba;
use ezp_core::error::Result;
use ezp_core::{Kernel, KernelCtx, Rgba};
use ezp_sched::{run_variant, Driver};

/// Pixel color for rotation angle `base_angle` (degrees).
#[inline]
pub fn spin_color(x: usize, y: usize, dim: usize, base_angle: f32) -> Rgba {
    let cx = x as f32 - dim as f32 / 2.0;
    let cy = y as f32 - dim as f32 / 2.0;
    let angle = cy.atan2(cx).to_degrees() + base_angle;
    let radius = (cx * cx + cy * cy).sqrt() / (dim as f32 / 2.0);
    hsv_to_rgba(angle, radius.clamp(0.0, 1.0), 1.0)
}

/// One tile row of the wheel: `row[i]` is pixel `(x0 + i, y)`. Out of
/// line for the reason `mandel_row` is: compiled inside the tile
/// function, this loop ran about 15% slower.
#[inline(never)]
fn spin_row(row: &mut [Rgba], x0: usize, y: usize, dim: usize, angle: f32) {
    for (i, p) in row.iter_mut().enumerate() {
        *p = spin_color(x0 + i, y, dim, angle);
    }
}

/// Rotation speed in degrees per iteration.
const SPEED: f32 = 5.0;

/// The spin kernel.
#[derive(Default)]
pub struct Spin {
    angle: f32,
}

impl Kernel for Spin {
    fn name(&self) -> &'static str {
        "spin"
    }

    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "omp_tiled"]
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        self.angle = 0.0;
        ctx.images.cur_mut().fill(Rgba::BLACK);
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        let driver = match variant {
            "seq" => Driver::Seq,
            "omp_tiled" => Driver::OmpTiled,
            other => return Err(crate::unknown_variant("spin", other)),
        };
        let dim = ctx.dim();
        run_variant(ctx, driver, nb_iter, |sweep, images| {
            let angle = self.angle;
            sweep.tiles(images.cur_mut(), &|w| {
                let t = w.tile();
                for y in t.y..t.y + t.h {
                    spin_row(w.row_mut(y), t.x, y, dim, angle);
                }
                true
            });
            self.angle += SPEED;
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::RunConfig;

    fn run(variant: &str, iters: u32) -> Vec<Rgba> {
        let mut ctx = KernelCtx::new(RunConfig::new("spin").size(32).tile(8).threads(3)).unwrap();
        let mut k = Spin::default();
        k.init(&mut ctx).unwrap();
        k.compute(&mut ctx, variant, iters).unwrap();
        ctx.images.cur().as_slice().to_vec()
    }

    #[test]
    fn variants_agree() {
        assert_eq!(run("seq", 3), run("omp_tiled", 3));
    }

    #[test]
    fn image_rotates_between_iterations() {
        assert_ne!(run("seq", 1), run("seq", 2));
    }

    #[test]
    fn center_is_unsaturated_border_saturated() {
        let out = run("seq", 1);
        let center = out[16 * 32 + 16];
        // near-zero radius -> near-white (saturation ~ 0)
        assert!(center.r() > 200 && center.g() > 200 && center.b() > 200);
        let corner = out[0];
        let spread = corner.r().abs_diff(corner.g()).max(corner.g().abs_diff(corner.b()));
        assert!(spread > 50, "corner should be saturated, got {corner:?}");
    }
}

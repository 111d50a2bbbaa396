//! The Mandelbrot kernel (paper Fig. 1/2, §III-A).
//!
//! `compute_color(y, x)` is the escape-time iteration; every frame the
//! viewport zooms slightly ("`zoom()`; // modify the viewpoint real
//! coordinates"). Work per pixel is wildly non-uniform — points inside
//! the set burn `max_iter` iterations, far-away points only a few — which
//! is exactly why this kernel is the paper's load-balancing teaching
//! vehicle: a static tile distribution starves most CPUs (Fig. 3) and
//! students must find the right `schedule`/tile-size combination
//! (Fig. 4/6).

use ezp_core::color::mandel_color;
use ezp_core::error::{Error, Result};
use ezp_core::{Kernel, KernelCtx, Rgba, Tile};
use ezp_gpu::{NdRange, VirtualDevice};
use ezp_sched::{run_variant, Driver};

/// Default escape-time iteration cap. Large enough to show the black
/// interior, small enough for laptop-scale runs.
pub const DEFAULT_MAX_ITER: u32 = 256;

/// Per-frame zoom factor (the paper zooms in slightly every iteration).
const ZOOM_FACTOR: f64 = 0.96;

/// The complex-plane viewport.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Viewport {
    /// Left real coordinate.
    pub xmin: f64,
    /// Right real coordinate.
    pub xmax: f64,
    /// Top imaginary coordinate.
    pub ymin: f64,
    /// Bottom imaginary coordinate.
    pub ymax: f64,
}

impl Default for Viewport {
    fn default() -> Self {
        // the classic full-set view, centered like EASYPAP's
        Viewport {
            xmin: -2.05,
            xmax: 0.75,
            ymin: -1.4,
            ymax: 1.4,
        }
    }
}

impl Viewport {
    /// Zooms toward a fixed interesting point on the set's boundary, so
    /// that the zoomed view keeps a mix of cheap and expensive areas.
    pub fn zoom(&mut self) {
        const CX: f64 = -0.743_643_887_037;
        const CY: f64 = 0.131_825_904_205;
        self.xmin = CX + (self.xmin - CX) * ZOOM_FACTOR;
        self.xmax = CX + (self.xmax - CX) * ZOOM_FACTOR;
        self.ymin = CY + (self.ymin - CY) * ZOOM_FACTOR;
        self.ymax = CY + (self.ymax - CY) * ZOOM_FACTOR;
    }

    /// The complex coordinate of pixel `(x, y)` in a `dim`×`dim` image.
    #[inline]
    pub fn pixel_to_complex(&self, x: usize, y: usize, dim: usize) -> (f64, f64) {
        let fx = self.xmin + (self.xmax - self.xmin) * (x as f64 + 0.5) / dim as f64;
        let fy = self.ymin + (self.ymax - self.ymin) * (y as f64 + 0.5) / dim as f64;
        (fx, fy)
    }
}

/// Escape-time iteration count for the complex point `(cx, cy)`.
#[inline]
pub fn escape_iterations(cx: f64, cy: f64, max_iter: u32) -> u32 {
    // cardioid / period-2 bulb shortcut: the expensive interior answered
    // in O(1), like production Mandelbrot renderers
    let q = (cx - 0.25) * (cx - 0.25) + cy * cy;
    if q * (q + (cx - 0.25)) <= 0.25 * cy * cy || (cx + 1.0) * (cx + 1.0) + cy * cy <= 0.0625 {
        return max_iter;
    }
    let mut zx = 0.0f64;
    let mut zy = 0.0f64;
    let mut it = 0;
    while zx * zx + zy * zy < 4.0 && it < max_iter {
        let t = zx * zx - zy * zy + cx;
        zy = 2.0 * zx * zy + cy;
        zx = t;
        it += 1;
    }
    it
}

/// Four-lane escape-time iteration: computes [`escape_iterations`] for
/// four points at once with a lane mask, the structure a SIMD
/// implementation (the paper mentions "intrinsics instructions" as one
/// of the supported paradigms) would use — written so LLVM can
/// vectorize the lane operations. Value-identical to the scalar path
/// (property-tested): the scalar cardioid shortcut only answers
/// `max_iter` early for points the iteration would also grade
/// `max_iter`, so skipping it changes speed, never results.
pub fn escape_iterations_x4(cx: [f64; 4], cy: [f64; 4], max_iter: u32) -> [u32; 4] {
    let mut zx = [0.0f64; 4];
    let mut zy = [0.0f64; 4];
    let mut iters = [max_iter; 4];
    let mut active = [true; 4];
    for it in 0..max_iter {
        let mut any = false;
        for l in 0..4 {
            if !active[l] {
                continue;
            }
            let x2 = zx[l] * zx[l];
            let y2 = zy[l] * zy[l];
            if x2 + y2 >= 4.0 {
                iters[l] = it;
                active[l] = false;
                continue;
            }
            let t = x2 - y2 + cx[l];
            zy[l] = 2.0 * zx[l] * zy[l] + cy[l];
            zx[l] = t;
            any = true;
        }
        if !any {
            break;
        }
    }
    iters
}

/// Scalar escape time without the cardioid/bulb shortcut — the exact
/// reference for [`escape_iterations_x4`].
pub fn escape_iterations_noshortcut(cx: f64, cy: f64, max_iter: u32) -> u32 {
    let mut zx = 0.0f64;
    let mut zy = 0.0f64;
    let mut it = 0;
    while zx * zx + zy * zy < 4.0 && it < max_iter {
        let t = zx * zx - zy * zy + cx;
        zy = 2.0 * zx * zy + cy;
        zx = t;
        it += 1;
    }
    it
}

/// Exact number of escape-time iterations needed by every pixel of
/// `tile` — the deterministic cost model handed to `ezp-simsched` (one
/// virtual ns per inner-loop iteration).
pub fn tile_cost(view: &Viewport, tile: Tile, dim: usize, max_iter: u32) -> u64 {
    let mut total = 0u64;
    for y in tile.y..tile.y + tile.h {
        for x in tile.x..tile.x + tile.w {
            let (cx, cy) = view.pixel_to_complex(x, y, dim);
            total += escape_iterations(cx, cy, max_iter) as u64;
        }
    }
    total
}

/// The row function of a CPU variant: [`mandel_row`] or
/// [`mandel_row_x4`].
type MandelRow = fn(&mut [Rgba], usize, usize, &Viewport, usize, u32);

/// The Mandelbrot kernel state.
pub struct Mandel {
    /// Current viewport (zooms every iteration).
    pub view: Viewport,
    /// Escape-time cap.
    pub max_iter: u32,
}

impl Default for Mandel {
    fn default() -> Self {
        Mandel {
            view: Viewport::default(),
            max_iter: DEFAULT_MAX_ITER,
        }
    }
}

/// One tile row of the escape-time image: `row[i]` is pixel
/// `(x0 + i, y)`. Kept out of line so that every driver and both call
/// sites (the `seq` image and the `omp_tiled` tiles) run this one
/// compiled loop; inlined into the pool's region closure, LLVM packed
/// `(zx, zy)` into one SSE register and the escape loop paid shuffles on
/// every iteration.
#[inline(never)]
fn mandel_row(row: &mut [Rgba], x0: usize, y: usize, view: &Viewport, dim: usize, max_iter: u32) {
    for (i, px) in row.iter_mut().enumerate() {
        let (cx, cy) = view.pixel_to_complex(x0 + i, y, dim);
        *px = mandel_color(escape_iterations(cx, cy, max_iter), max_iter);
    }
}

/// [`mandel_row`] four pixels at a time through
/// [`escape_iterations_x4`], with a scalar tail — the lane-parallel inner
/// loop a SIMD/intrinsics port would use (the paper's "intrinsics
/// instructions" paradigm). Produces the exact pixels of the scalar row.
#[inline(never)]
fn mandel_row_x4(row: &mut [Rgba], x0: usize, y: usize, view: &Viewport, dim: usize, max_iter: u32) {
    let mut quads = row.chunks_exact_mut(4);
    let mut x = x0;
    for quad in &mut quads {
        let mut cx = [0.0; 4];
        let mut cy = [0.0; 4];
        for l in 0..4 {
            (cx[l], cy[l]) = view.pixel_to_complex(x + l, y, dim);
        }
        let iters = escape_iterations_x4(cx, cy, max_iter);
        for (px, n) in quad.iter_mut().zip(iters) {
            *px = mandel_color(n, max_iter);
        }
        x += 4;
    }
    mandel_row(quads.into_remainder(), x, y, view, dim, max_iter);
}

impl Mandel {
    /// OpenCL-style variant on the virtual device (one work-item per
    /// pixel, work-groups = tiles).
    fn compute_gpu(&mut self, ctx: &mut KernelCtx, nb_iter: u32) -> Result<()> {
        let dim = ctx.dim();
        let device = VirtualDevice::new(ctx.threads());
        for it in 1..=nb_iter {
            ctx.probe.iteration_start(it);
            let view = self.view;
            let max_iter = self.max_iter;
            let range = NdRange {
                global: (dim, dim),
                local: (ctx.cfg.tile_size, ctx.cfg.tile_size),
            };
            let (out, _profile) = device.launch(range, ctx.images.cur(), |x, y, _| {
                let (cx, cy) = view.pixel_to_complex(x, y, dim);
                mandel_color(escape_iterations(cx, cy, max_iter), max_iter)
            })?;
            ctx.images.cur_mut().copy_from(&out);
            self.view.zoom();
            ctx.probe.iteration_end(it);
        }
        Ok(())
    }
}

impl Kernel for Mandel {
    fn name(&self) -> &'static str {
        "mandel"
    }

    fn variants(&self) -> Vec<&'static str> {
        vec!["seq", "tiled", "omp", "omp_tiled", "omp_tiled_x4", "gpu"]
    }

    fn init(&mut self, ctx: &mut KernelCtx) -> Result<()> {
        if let Some(arg) = &ctx.cfg.kernel_arg {
            self.max_iter = arg
                .parse()
                .map_err(|_| Error::Config(format!("mandel: bad max_iter `{arg}`")))?;
        }
        ctx.images.cur_mut().fill(Rgba::BLACK);
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        let (driver, row): (Driver, MandelRow) = match variant {
            "seq" => (Driver::Seq, mandel_row),
            "tiled" => (Driver::Tiled, mandel_row),
            "omp" => (Driver::Omp, mandel_row),
            "omp_tiled" => (Driver::OmpTiled, mandel_row),
            "omp_tiled_x4" => (Driver::OmpTiled, mandel_row_x4),
            "gpu" => return self.compute_gpu(ctx, nb_iter).map(|()| None),
            other => return Err(crate::unknown_variant("mandel", other)),
        };
        let dim = ctx.dim();
        run_variant(ctx, driver, nb_iter, |sweep, images| {
            let (view, max_iter) = (self.view, self.max_iter);
            sweep.tiles(images.cur_mut(), &|w| {
                let t = w.tile();
                for y in t.y..t.y + t.h {
                    row(w.row_mut(y), t.x, y, &view, dim, max_iter);
                }
                true
            });
            self.view.zoom();
            true
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::{RunConfig, Schedule, TileGrid};

    fn ctx(dim: usize, tile: usize, threads: usize) -> KernelCtx {
        KernelCtx::new(
            RunConfig::new("mandel")
                .size(dim)
                .tile(tile)
                .threads(threads)
                .schedule(Schedule::Dynamic(1)),
        )
        .unwrap()
    }

    fn render(variant: &str, iters: u32) -> Vec<Rgba> {
        let mut k = Mandel::default();
        let mut c = ctx(64, 16, 3);
        k.init(&mut c).unwrap();
        k.compute(&mut c, variant, iters).unwrap();
        c.images.cur().as_slice().to_vec()
    }

    #[test]
    fn escape_is_bounded_and_interior_maxes() {
        assert_eq!(escape_iterations(0.0, 0.0, 100), 100); // origin is in the set
        assert_eq!(escape_iterations(-1.0, 0.0, 100), 100); // period-2 bulb
        assert!(escape_iterations(2.0, 2.0, 100) < 5); // far outside escapes fast
        for &(cx, cy) in &[(0.3, 0.5), (-0.7, 0.3), (1.5, 0.0)] {
            assert!(escape_iterations(cx, cy, 64) <= 64);
        }
    }

    #[test]
    fn cardioid_shortcut_matches_iteration() {
        // points the shortcut claims are inside must not escape
        for &(cx, cy) in &[(0.1, 0.1), (-0.2, 0.0), (-1.05, 0.05)] {
            let q = (cx - 0.25f64) * (cx - 0.25) + cy * cy;
            let inside_shortcut = q * (q + (cx - 0.25)) <= 0.25 * cy * cy
                || (cx + 1.0) * (cx + 1.0) + cy * cy <= 0.0625;
            if inside_shortcut {
                assert_eq!(escape_iterations(cx, cy, 512), 512);
            }
        }
    }

    #[test]
    fn all_variants_agree_with_seq() {
        let reference = render("seq", 2);
        for variant in ["tiled", "omp", "omp_tiled", "omp_tiled_x4", "gpu"] {
            assert_eq!(render(variant, 2), reference, "variant {variant} diverged");
        }
    }

    #[test]
    fn lane_parallel_escape_matches_scalar() {
        let view = Viewport::default();
        for y in (0..64).step_by(3) {
            for x0 in (0..60).step_by(4) {
                let mut cx = [0.0; 4];
                let mut cy = [0.0; 4];
                for l in 0..4 {
                    let (a, b) = view.pixel_to_complex(x0 + l, y, 64);
                    cx[l] = a;
                    cy[l] = b;
                }
                let lanes = escape_iterations_x4(cx, cy, 200);
                for l in 0..4 {
                    assert_eq!(
                        lanes[l],
                        escape_iterations_noshortcut(cx[l], cy[l], 200),
                        "lane {l} diverged at ({},{y})", x0 + l
                    );
                    assert_eq!(lanes[l], escape_iterations(cx[l], cy[l], 200));
                }
            }
        }
    }

    #[test]
    fn zoom_shrinks_viewport() {
        let mut v = Viewport::default();
        let w0 = v.xmax - v.xmin;
        v.zoom();
        let w1 = v.xmax - v.xmin;
        assert!(w1 < w0);
        assert!(w1 > 0.9 * w0);
    }

    #[test]
    fn image_contains_set_and_exterior() {
        let img = render("seq", 1);
        let black = img.iter().filter(|&&p| p == Rgba::BLACK).count();
        assert!(black > 0, "no interior pixels rendered");
        assert!(black < img.len(), "everything is interior?");
    }

    #[test]
    fn tile_cost_is_heavier_on_the_set() {
        let view = Viewport::default();
        let grid = TileGrid::square(64, 16).unwrap();
        // a tile containing part of the interior vs the top-left corner
        // (far exterior): interior must cost much more
        let costs: Vec<u64> = grid.iter().map(|t| tile_cost(&view, t, 64, 256)).collect();
        let max = *costs.iter().max().unwrap();
        let min = *costs.iter().min().unwrap();
        assert!(max > 20 * min, "expected strong cost imbalance, got {min}..{max}");
        // total cost equals the sum over pixels (spot check one tile)
        let t = grid.tile(0, 0);
        let manual: u64 = (0..16)
            .flat_map(|y| (0..16).map(move |x| (x, y)))
            .map(|(x, y)| {
                let (cx, cy) = view.pixel_to_complex(x, y, 64);
                escape_iterations(cx, cy, 256) as u64
            })
            .sum();
        assert_eq!(tile_cost(&view, t, 64, 256), manual);
    }

    #[test]
    fn kernel_arg_sets_max_iter() {
        let mut k = Mandel::default();
        let mut cfg = RunConfig::new("mandel").size(32).tile(8);
        cfg.kernel_arg = Some("64".into());
        let mut c = KernelCtx::new(cfg).unwrap();
        k.init(&mut c).unwrap();
        assert_eq!(k.max_iter, 64);
        let mut bad = KernelCtx::new({
            let mut cfg = RunConfig::new("mandel").size(32).tile(8);
            cfg.kernel_arg = Some("not-a-number".into());
            cfg
        })
        .unwrap();
        assert!(k.init(&mut bad).is_err());
    }

    #[test]
    fn unknown_variant_is_rejected() {
        let mut k = Mandel::default();
        let mut c = ctx(32, 8, 1);
        k.init(&mut c).unwrap();
        assert!(k.compute(&mut c, "cuda", 1).is_err());
    }
}

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

/// True when `(cx, cy)` lies in the main cardioid or the period-2 bulb,
/// where the escape iteration never escapes: the shortcut of
/// [`escape_iterations`], restated rather than shared so that
/// `escape_iterations` stays an independent reference for the row.
#[inline]
fn in_cardioid_or_bulb(cx: f64, cy: f64) -> bool {
    let q = (cx - 0.25) * (cx - 0.25) + cy * cy;
    q * (q + (cx - 0.25)) <= 0.25 * cy * cy || (cx + 1.0) * (cx + 1.0) + cy * cy <= 0.0625
}

/// Points iterated side by side by [`escape_lanes`]. Four `f64` lanes
/// fill two SSE2 registers per variable, enough independent chains to
/// hide the multiply latency of the scalar loop's one chain; see
/// EXPERIMENTS.md, "Mandel row", for the 4 vs 8 measurement.
const LANES: usize = 4;

/// The escape loop of [`escape_iterations`], without its shortcut, for
/// [`LANES`] points at once. Branch-free per lane: a lane's mask turns
/// off the first time its point escapes and its counter stops, while its
/// `z` keeps iterating unobserved; the loop ends when every mask is off
/// or after `max_iter` passes. Each lane evaluates the scalar loop's
/// expressions in the scalar loop's order, so every count is exact.
#[inline(always)]
fn escape_lanes(cx: [f64; LANES], cy: [f64; LANES], max_iter: u32) -> [u32; LANES] {
    let (mut zx, mut zy) = ([0.0f64; LANES], [0.0f64; LANES]);
    // all-ones while the lane's point has not escaped: `f64`-wide masks
    // keep the lane test in the SSE registers the arithmetic uses
    let mut active = [u64::MAX; LANES];
    let mut count = [0u64; LANES];
    for _ in 0..max_iter {
        for l in 0..LANES {
            let (x2, y2) = (zx[l] * zx[l], zy[l] * zy[l]);
            active[l] &= ((x2 + y2 < 4.0) as u64).wrapping_neg();
            count[l] += active[l] & 1;
            let t = x2 - y2 + cx[l];
            zy[l] = 2.0 * zx[l] * zy[l] + cy[l];
            zx[l] = t;
        }
        if active.iter().fold(0, |any, &m| any | m) == 0 {
            break;
        }
    }
    count.map(|n| n as u32)
}

/// Calls `emit(i, escape_iterations(cx, cy, max_iter))` once for every
/// pixel `(x0 + i, y)` of a `len`-pixel image row, `i` in `0..len`, in
/// no fixed order. Cardioid and bulb pixels are answered first; the
/// others are packed [`LANES`] at a time into [`escape_lanes`], and the
/// last `< LANES` of them go through the scalar [`escape_iterations`].
#[inline]
pub fn escape_row(
    x0: usize,
    y: usize,
    len: usize,
    view: &Viewport,
    dim: usize,
    max_iter: u32,
    mut emit: impl FnMut(usize, u32),
) {
    let mut pixel = [0usize; LANES];
    let (mut cx, mut cy) = ([0.0f64; LANES], [0.0f64; LANES]);
    let mut queued = 0;
    for i in 0..len {
        let (a, b) = view.pixel_to_complex(x0 + i, y, dim);
        if in_cardioid_or_bulb(a, b) {
            emit(i, max_iter);
            continue;
        }
        (pixel[queued], cx[queued], cy[queued]) = (i, a, b);
        queued += 1;
        if queued == LANES {
            for (&i, n) in pixel.iter().zip(escape_lanes(cx, cy, max_iter)) {
                emit(i, n);
            }
            queued = 0;
        }
    }
    for l in 0..queued {
        emit(pixel[l], escape_iterations(cx[l], cy[l], max_iter));
    }
}

/// The largest `max_iter` mandel accepts (`--arg`): the palette holds
/// `max_iter + 1` colours, 4 MiB at this limit.
pub const MAX_ITER_LIMIT: u32 = 1 << 20;

/// The colour of every escape count: `palette(max_iter)[n]` is
/// `mandel_color(n, max_iter)` for `n` in `0..=max_iter`. Built once per
/// `compute` call, so that no pixel pays for `mandel_color`'s `sin` and
/// HSV conversion.
pub fn palette(max_iter: u32) -> Vec<Rgba> {
    (0..=max_iter).map(|n| mandel_color(n, max_iter)).collect()
}

/// Rejects a `max_iter` above [`MAX_ITER_LIMIT`] before anything sized
/// by it is allocated.
fn check_max_iter(max_iter: u32) -> Result<()> {
    if max_iter > MAX_ITER_LIMIT {
        return Err(Error::Config(format!(
            "mandel: max_iter {max_iter} exceeds the limit of {MAX_ITER_LIMIT}"
        )));
    }
    Ok(())
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
/// `(x0 + i, y)`, coloured from `palette` (see [`palette`]). Kept out
/// of line so that every driver and both call sites (the `seq` image and
/// the `omp_tiled` tiles) run this one compiled loop; inlined into the
/// pool's region closure, LLVM packed `(zx, zy)` into one SSE register
/// and the escape loop paid shuffles on every iteration.
#[inline(never)]
fn mandel_row(row: &mut [Rgba], x0: usize, y: usize, view: &Viewport, dim: usize, palette: &[Rgba]) {
    let max_iter = (palette.len() - 1) as u32;
    escape_row(x0, y, row.len(), view, dim, max_iter, |i, n| {
        row[i] = palette[n as usize];
    });
}

impl Mandel {
    /// OpenCL-style variant on the virtual device (one work-item per
    /// pixel, work-groups = tiles).
    fn compute_gpu(&mut self, ctx: &mut KernelCtx, nb_iter: u32) -> Result<()> {
        let dim = ctx.dim();
        let device = VirtualDevice::new(ctx.threads());
        let palette = palette(self.max_iter);
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
                palette[escape_iterations(cx, cy, max_iter) as usize]
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
            check_max_iter(self.max_iter)?;
        }
        ctx.images.cur_mut().fill(Rgba::BLACK);
        Ok(())
    }

    fn compute(&mut self, ctx: &mut KernelCtx, variant: &str, nb_iter: u32) -> Result<Option<u32>> {
        check_max_iter(self.max_iter)?;
        let driver = match variant {
            "seq" => Driver::Seq,
            "tiled" => Driver::Tiled,
            "omp" => Driver::Omp,
            // every CPU variant runs the lane loop of `mandel_row`; the
            // former "intrinsics" variant stays as a name of `omp_tiled`
            // so that command lines and benchmarks naming it still run
            "omp_tiled" | "omp_tiled_x4" => Driver::OmpTiled,
            "gpu" => return self.compute_gpu(ctx, nb_iter).map(|()| None),
            other => return Err(crate::unknown_variant("mandel", other)),
        };
        let dim = ctx.dim();
        let palette = palette(self.max_iter);
        run_variant(ctx, driver, nb_iter, |sweep, images| {
            let view = self.view;
            sweep.tiles(images.cur_mut(), &|w| {
                let t = w.tile();
                for y in t.y..t.y + t.h {
                    mandel_row(w.row_mut(y), t.x, y, &view, dim, &palette);
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
    use ezp_testkit::ezp_proptest;

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
        // points the shortcut answers must not escape the shortcut-free
        // lane loop either
        let view = Viewport::default();
        let mut inside = 0;
        for y in 0..64 {
            for x0 in (0..64).step_by(LANES) {
                let (mut cx, mut cy) = ([0.0; LANES], [0.0; LANES]);
                for l in 0..LANES {
                    (cx[l], cy[l]) = view.pixel_to_complex(x0 + l, y, 64);
                }
                let counts = escape_lanes(cx, cy, 512);
                for l in 0..LANES {
                    if in_cardioid_or_bulb(cx[l], cy[l]) {
                        inside += 1;
                        assert_eq!(counts[l], 512, "({}, {y}) escaped", x0 + l);
                    }
                }
            }
        }
        assert!(inside > 0, "no pixel of the default view hit the shortcut");
    }

    #[test]
    fn all_variants_agree_with_seq() {
        let reference = render("seq", 2);
        for variant in ["tiled", "omp", "omp_tiled", "omp_tiled_x4", "gpu"] {
            assert_eq!(render(variant, 2), reference, "variant {variant} diverged");
        }
    }

    /// The `max_iter` values the row property sweeps: the degenerate
    /// caps 0 to 3, where most lanes end at the cap, a small odd one,
    /// the default and a deep one.
    const MAX_ITERS: [u32; 8] = [0, 1, 2, 3, 7, 64, DEFAULT_MAX_ITER, 1000];

    ezp_proptest! {
        #![cases(4096)]

        fn prop_row_matches_per_pixel_reference(
            zooms in 0usize..81,
            dim in 1usize..1024,
            x0 in 0usize..1024,
            y in 0usize..1024,
            len in 0usize..41,
            which in 0usize..8,
        ) {
            let mut view = Viewport::default();
            for _ in 0..zooms {
                view.zoom();
            }
            let (x0, y, max_iter) = (x0 % dim, y % dim, MAX_ITERS[which]);
            // alpha 0 is no palette colour: every pixel must be written
            let mut row = vec![Rgba::new(1, 2, 3, 0); len];
            mandel_row(&mut row, x0, y, &view, dim, &palette(max_iter));
            for (i, &px) in row.iter().enumerate() {
                let (cx, cy) = view.pixel_to_complex(x0 + i, y, dim);
                let want = mandel_color(escape_iterations(cx, cy, max_iter), max_iter);
                assert_eq!(px, want, "pixel ({}, {y}) of a {len}-pixel row", x0 + i);
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
    fn max_iter_above_the_limit_is_a_config_error() {
        let init = |arg: u32| {
            let mut cfg = RunConfig::new("mandel").size(32).tile(8);
            cfg.kernel_arg = Some(arg.to_string());
            Mandel::default().init(&mut KernelCtx::new(cfg).unwrap())
        };
        init(MAX_ITER_LIMIT).unwrap();
        let err = init(MAX_ITER_LIMIT + 1).unwrap_err();
        assert!(
            matches!(&err, Error::Config(msg) if msg.contains(&MAX_ITER_LIMIT.to_string())),
            "{err:?}"
        );
        // the field is public: compute checks it again before allocating
        let mut k = Mandel {
            max_iter: u32::MAX,
            ..Mandel::default()
        };
        let mut c = ctx(32, 8, 1);
        for variant in ["seq", "gpu"] {
            assert!(matches!(k.compute(&mut c, variant, 1), Err(Error::Config(_))));
        }
    }

    #[test]
    fn unknown_variant_is_rejected() {
        let mut k = Mandel::default();
        let mut c = ctx(32, 8, 1);
        k.init(&mut c).unwrap();
        assert!(k.compute(&mut c, "cuda", 1).is_err());
    }
}

//! Shared-image access for tile-parallel kernels.
//!
//! A tiled kernel has many workers writing *disjoint tiles* of the same
//! image concurrently. That is data-race-free by construction (the tile
//! grid partitions the image — a property-tested invariant of
//! `ezp_core::TileGrid`), but the borrow checker cannot see it across a
//! stride-y 2D layout. [`ImgCell`] encapsulates the one `unsafe` spot:
//! it erases a `&mut Img2D<T>` into a shared handle, and only exposes
//! writes through [`TileWriter`], which bounds-checks every access
//! against its tile rectangle (per pixel with `set`, per row with
//! `row_mut`). As long as each in-flight `TileWriter`
//! covers a distinct tile — which the dispensers guarantee by handing
//! each tile out exactly once — all writes are disjoint.
//!
//! **Aliasing.** [`ImgCell::tile_writer`] is a safe function, yet two
//! writers over one tile must never both be live, and no pixel may be
//! read with [`ImgCell::get`] while a [`TileWriter::row_mut`] slice over
//! it is live: either would be undefined behaviour, even on one thread.
//! Framework code only takes writers from the driver
//! (`crate::driver::Sweep::tiles`), whose cell is local and whose tile
//! function only ever sees one writer per dispensed tile.

use ezp_core::{Img2D, Tile};
use std::cell::UnsafeCell;
use std::marker::PhantomData;

/// A shared, tile-writable view of an `Img2D<T>`.
pub struct ImgCell<'a, T> {
    data: &'a UnsafeCell<[T]>,
    width: usize,
    height: usize,
    _marker: PhantomData<&'a mut Img2D<T>>,
}

// SAFETY: concurrent access is restricted to disjoint tile rectangles via
// `TileWriter` (bounds-checked); reads via `get` may race with writes to
// *other tiles* only, never with writes to the same pixel.
unsafe impl<'a, T: Send + Sync> Sync for ImgCell<'a, T> {}

impl<'a, T: Copy> ImgCell<'a, T> {
    /// Wraps an exclusively borrowed image. The wrapper holds the borrow
    /// for `'a`, so no other access to the image can happen meanwhile.
    pub fn new(img: &'a mut Img2D<T>) -> Self {
        let width = img.width();
        let height = img.height();
        let slice: &'a mut [T] = img.as_mut_slice();
        // SAFETY: `UnsafeCell<[T]>` has the same layout as `[T]`.
        let data = unsafe { &*(slice as *mut [T] as *const UnsafeCell<[T]>) };
        ImgCell {
            data,
            width,
            height,
            _marker: PhantomData,
        }
    }

    /// Image width.
    #[inline]
    pub fn width(&self) -> usize {
        self.width
    }

    /// Image height.
    #[inline]
    pub fn height(&self) -> usize {
        self.height
    }

    #[inline]
    fn ptr(&self) -> *mut T {
        self.data.get() as *mut T
    }

    /// Reads pixel `(x, y)`.
    ///
    /// Reading is safe for pixels that no concurrent `TileWriter` covers
    /// (e.g. reading the *current* image while writers fill the *next*
    /// one, or reading your own tile). Racing a read with a write to the
    /// same pixel yields an unspecified—but not undefined, `T: Copy` and
    /// the slot is always initialized—stale-or-fresh value; kernels in
    /// this workspace never do that.
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        assert!(x < self.width && y < self.height, "pixel out of image");
        // SAFETY: in-bounds (checked above); disjointness per type docs.
        unsafe { *self.ptr().add(y * self.width + x) }
    }

    /// A writer restricted to `tile`'s rectangle.
    pub fn tile_writer(&self, tile: Tile) -> TileWriter<'_, 'a, T> {
        assert!(
            tile.x + tile.w <= self.width && tile.y + tile.h <= self.height,
            "tile exceeds image bounds"
        );
        TileWriter { cell: self, tile }
    }
}

/// Write access limited to one tile rectangle; every access is checked.
pub struct TileWriter<'c, 'a, T> {
    cell: &'c ImgCell<'a, T>,
    tile: Tile,
}

impl<'c, 'a, T: Copy> TileWriter<'c, 'a, T> {
    /// The tile this writer covers.
    #[inline]
    pub fn tile(&self) -> Tile {
        self.tile
    }

    /// Writes pixel `(x, y)` (absolute image coordinates).
    ///
    /// # Panics
    ///
    /// Panics when `(x, y)` lies outside this writer's tile — the guard
    /// that turns a would-be data race into a loud failure.
    #[inline]
    pub fn set(&self, x: usize, y: usize, v: T) {
        assert!(
            self.tile.contains(x, y),
            "write to ({x},{y}) outside tile ({},{},{}x{})",
            self.tile.x,
            self.tile.y,
            self.tile.w,
            self.tile.h
        );
        // SAFETY: (x,y) is inside this writer's tile; tiles of in-flight
        // writers are disjoint (see type-level docs), so no other thread
        // writes this slot.
        unsafe {
            *self.cell.ptr().add(y * self.cell.width + x) = v;
        }
    }

    /// The tile's span of image row `y`: the `tile.w` pixels starting at
    /// column `tile.x`, as one slice. The tile bounds are checked once
    /// for the row instead of once per pixel as with [`TileWriter::set`].
    /// Taking `&mut self` ties the slice to this writer, so it can alias
    /// neither another row slice nor a `set` through the same writer.
    ///
    /// # Aliasing
    ///
    /// The `&mut self` borrow cannot see other writers: while the slice
    /// lives, no second [`TileWriter`] over the same tile may exist and
    /// no [`ImgCell::get`] may read the span (see the module docs).
    ///
    /// # Panics
    ///
    /// Panics when row `y` lies outside this writer's tile.
    #[inline]
    pub fn row_mut(&mut self, y: usize) -> &mut [T] {
        assert!(
            y >= self.tile.y && y < self.tile.y + self.tile.h,
            "row {y} outside tile ({},{},{}x{})",
            self.tile.x,
            self.tile.y,
            self.tile.w,
            self.tile.h
        );
        // SAFETY: row y is one of the tile's rows (checked above) and the
        // tile lies inside the image (checked by `tile_writer`), so the
        // span is in bounds. Tiles of in-flight writers are disjoint (see
        // type-level docs), and the `&mut self` borrow keeps this writer
        // from handing out any other access to the span while it lives.
        unsafe {
            std::slice::from_raw_parts_mut(
                self.cell.ptr().add(y * self.cell.width + self.tile.x),
                self.tile.w,
            )
        }
    }

    /// Reads pixel `(x, y)` from anywhere in the image (stencils read
    /// neighbours outside their own tile).
    #[inline]
    pub fn get(&self, x: usize, y: usize) -> T {
        self.cell.get(x, y)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ezp_core::TileGrid;

    #[test]
    fn sequential_tile_writes_land() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let grid = TileGrid::square(8, 4).unwrap();
        {
            let cell = ImgCell::new(&mut img);
            for t in grid.iter() {
                let w = cell.tile_writer(t);
                for y in t.y..t.y + t.h {
                    for x in t.x..t.x + t.w {
                        w.set(x, y, (t.tx + 10 * t.ty) as u32);
                    }
                }
            }
        }
        assert_eq!(img.get(0, 0), 0);
        assert_eq!(img.get(7, 0), 1);
        assert_eq!(img.get(0, 7), 10);
        assert_eq!(img.get(7, 7), 11);
    }

    #[test]
    #[should_panic(expected = "outside tile")]
    fn out_of_tile_write_panics() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let grid = TileGrid::square(8, 4).unwrap();
        let cell = ImgCell::new(&mut img);
        let w = cell.tile_writer(grid.tile(0, 0));
        w.set(4, 0, 1); // first pixel of the neighbouring tile
    }

    #[test]
    #[should_panic(expected = "exceeds image bounds")]
    fn oversized_tile_rejected() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let cell = ImgCell::new(&mut img);
        let bad = Tile {
            x: 4,
            y: 4,
            w: 8,
            h: 8,
            tx: 1,
            ty: 1,
        };
        let _ = cell.tile_writer(bad);
    }

    #[test]
    fn concurrent_disjoint_tiles() {
        let mut img: Img2D<u32> = Img2D::square(64);
        let grid = TileGrid::square(64, 16).unwrap();
        {
            let cell = ImgCell::new(&mut img);
            std::thread::scope(|s| {
                for t in grid.iter() {
                    let cell = &cell;
                    s.spawn(move || {
                        let w = cell.tile_writer(t);
                        for y in t.y..t.y + t.h {
                            for x in t.x..t.x + t.w {
                                w.set(x, y, grid.linear_index(t.tx, t.ty) as u32 + 1);
                            }
                        }
                    });
                }
            });
        }
        // every pixel got its tile's id
        for t in grid.iter() {
            let want = grid.linear_index(t.tx, t.ty) as u32 + 1;
            for y in t.y..t.y + t.h {
                for x in t.x..t.x + t.w {
                    assert_eq!(img.get(x, y), want);
                }
            }
        }
    }

    #[test]
    fn row_mut_spans_exactly_the_tile_row() {
        let mut img: Img2D<u32> = Img2D::new(12, 8);
        let grid = TileGrid::new(12, 8, 5, 3).unwrap();
        {
            let cell = ImgCell::new(&mut img);
            let t = grid.tile(1, 1); // x 5..10, y 3..6
            let mut w = cell.tile_writer(t);
            for y in t.y..t.y + t.h {
                let row = w.row_mut(y);
                assert_eq!(row.len(), t.w);
                for (i, p) in row.iter_mut().enumerate() {
                    *p = (100 * y + t.x + i) as u32;
                }
            }
            // ragged right-edge tile: the span is clipped like the tile
            let edge = grid.tile(2, 2);
            assert_eq!(cell.tile_writer(edge).row_mut(edge.y).len(), 2);
        }
        for y in 0..8 {
            for x in 0..12 {
                let inside = (5..10).contains(&x) && (3..6).contains(&y);
                let want = if inside { (100 * y + x) as u32 } else { 0 };
                assert_eq!(img.get(x, y), want, "pixel ({x},{y})");
            }
        }
    }

    #[test]
    #[should_panic(expected = "outside tile")]
    fn row_mut_outside_tile_panics() {
        let mut img: Img2D<u32> = Img2D::square(8);
        let grid = TileGrid::square(8, 4).unwrap();
        let cell = ImgCell::new(&mut img);
        let mut w = cell.tile_writer(grid.tile(0, 1)); // rows 4..8
        w.row_mut(3);
    }

    #[test]
    fn concurrent_disjoint_rows() {
        let dim = 64;
        let mut img: Img2D<u32> = Img2D::square(dim);
        // one-row tiles, the grid of the `omp` driver
        let grid = TileGrid::new(dim, dim, dim, 1).unwrap();
        {
            let cell = ImgCell::new(&mut img);
            std::thread::scope(|s| {
                for part in 0..4 {
                    let (cell, grid) = (&cell, &grid);
                    s.spawn(move || {
                        for t in grid.iter().skip(part).step_by(4) {
                            let mut w = cell.tile_writer(t);
                            for (x, p) in w.row_mut(t.y).iter_mut().enumerate() {
                                *p = (t.y * dim + x) as u32 + 1;
                            }
                        }
                    });
                }
            });
        }
        for y in 0..dim {
            for x in 0..dim {
                assert_eq!(img.get(x, y), (y * dim + x) as u32 + 1);
            }
        }
    }

    #[test]
    fn reads_see_prior_writes() {
        let mut img: Img2D<u32> = Img2D::filled(4, 4, 7);
        let cell = ImgCell::new(&mut img);
        assert_eq!(cell.get(3, 3), 7);
        let grid = TileGrid::square(4, 2).unwrap();
        let w = cell.tile_writer(grid.tile(0, 0));
        w.set(0, 0, 99);
        assert_eq!(w.get(0, 0), 99);
        assert_eq!(w.get(3, 3), 7); // cross-tile read
    }
}

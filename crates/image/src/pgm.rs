//! PGM image output for inspecting rendered and composited images
//! (regenerates the paper's Figure 7 test-sample gallery).

use crate::image::Image;
use std::io::{self, Write};
use std::path::Path;

/// Writes the image's 8-bit gray-level luma as binary PGM (P5).
pub fn write_pgm<W: Write>(img: &Image, mut w: W) -> io::Result<()> {
    write!(w, "P5\n{} {}\n255\n", img.width(), img.height())?;
    let bytes: Vec<u8> = img.pixels().iter().map(|p| p.luma_u8()).collect();
    w.write_all(&bytes)
}

/// Convenience: writes a PGM file at `path`.
pub fn save_pgm(img: &Image, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_pgm(img, io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Pixel;

    #[test]
    fn pgm_header_and_payload() {
        let img = Image::from_fn(3, 2, |x, y| Pixel::gray((x + y) as f32 / 4.0, 1.0));
        let mut buf = Vec::new();
        write_pgm(&img, &mut buf).unwrap();
        assert!(buf.starts_with(b"P5\n3 2\n255\n"));
        assert_eq!(buf.len(), b"P5\n3 2\n255\n".len() + 6);
    }
}

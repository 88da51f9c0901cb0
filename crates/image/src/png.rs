//! Minimal dependency-free grayscale PNG output, so rendered and
//! composited images open in any viewer without PGM support.
//!
//! The encoder emits *stored* (uncompressed) deflate blocks inside a
//! valid zlib stream — bigger files than a real compressor, but byte-
//! exact, portable, and ~60 lines instead of a compression dependency.

use crate::image::Image;
use std::io::{self, Write};
use std::path::Path;

/// CRC-32 (ISO 3309) over `data`, as PNG chunks require.
fn crc32(data: &[u8]) -> u32 {
    // Standard table-driven implementation.
    fn table() -> [u32; 256] {
        let mut t = [0u32; 256];
        let mut n = 0usize;
        while n < 256 {
            let mut c = n as u32;
            let mut k = 0;
            while k < 8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
                k += 1;
            }
            t[n] = c;
            n += 1;
        }
        t
    }
    let t = table();
    let mut c = 0xFFFF_FFFFu32;
    for &b in data {
        c = t[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    c ^ 0xFFFF_FFFF
}

/// Adler-32 checksum, as zlib streams require.
fn adler32(data: &[u8]) -> u32 {
    const MOD: u32 = 65521;
    let (mut a, mut b) = (1u32, 0u32);
    for chunk in data.chunks(5552) {
        for &byte in chunk {
            a += byte as u32;
            b += a;
        }
        a %= MOD;
        b %= MOD;
    }
    (b << 16) | a
}

/// Wraps raw bytes in a zlib stream of stored deflate blocks.
fn zlib_stored(raw: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(raw.len() + raw.len() / 65535 * 5 + 16);
    out.extend_from_slice(&[0x78, 0x01]); // zlib header, no preset dict
    let mut chunks = raw.chunks(65535).peekable();
    if raw.is_empty() {
        out.extend_from_slice(&[0x01, 0, 0, 0xFF, 0xFF]); // final empty block
    }
    while let Some(chunk) = chunks.next() {
        let bfinal = if chunks.peek().is_none() { 1u8 } else { 0 };
        let len = chunk.len() as u16;
        out.push(bfinal);
        out.extend_from_slice(&len.to_le_bytes());
        out.extend_from_slice(&(!len).to_le_bytes());
        out.extend_from_slice(chunk);
    }
    out.extend_from_slice(&adler32(raw).to_be_bytes());
    out
}

fn chunk<W: Write>(mut w: W, kind: &[u8; 4], data: &[u8]) -> io::Result<()> {
    w.write_all(&(data.len() as u32).to_be_bytes())?;
    w.write_all(kind)?;
    w.write_all(data)?;
    let mut crc_input = Vec::with_capacity(4 + data.len());
    crc_input.extend_from_slice(kind);
    crc_input.extend_from_slice(data);
    w.write_all(&crc32(&crc_input).to_be_bytes())
}

/// Writes the image as an 8-bit grayscale PNG.
pub fn write_png_gray<W: Write>(img: &Image, mut w: W) -> io::Result<()> {
    w.write_all(&[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n'])?;
    let mut ihdr = Vec::with_capacity(13);
    ihdr.extend_from_slice(&(img.width() as u32).to_be_bytes());
    ihdr.extend_from_slice(&(img.height() as u32).to_be_bytes());
    ihdr.push(8); // bit depth
    ihdr.push(0); // color type: grayscale
    ihdr.extend_from_slice(&[0, 0, 0]); // compression, filter, interlace
    chunk(&mut w, b"IHDR", &ihdr)?;

    let mut raw = Vec::with_capacity(img.height() as usize * (1 + img.width() as usize));
    for y in 0..img.height() {
        raw.push(0); // filter: none
        for x in 0..img.width() {
            raw.push(img.get(x, y).luma_u8());
        }
    }
    chunk(&mut w, b"IDAT", &zlib_stored(&raw))?;
    chunk(&mut w, b"IEND", &[])
}

/// Convenience: saves a grayscale PNG at `path`.
pub fn save_png_gray(img: &Image, path: impl AsRef<Path>) -> io::Result<()> {
    let f = std::fs::File::create(path)?;
    write_png_gray(img, io::BufWriter::new(f))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Pixel;

    #[test]
    fn crc32_known_vectors() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b"IEND"), 0xAE42_6082);
    }

    #[test]
    fn adler32_known_vectors() {
        assert_eq!(adler32(b""), 1);
        assert_eq!(adler32(b"Wikipedia"), 0x11E6_0398);
    }

    #[test]
    fn zlib_stored_round_trips_structurally() {
        let raw = vec![42u8; 70000]; // spans two stored blocks
        let z = zlib_stored(&raw);
        assert_eq!(&z[0..2], &[0x78, 0x01]);
        // First block: not final, len 65535.
        assert_eq!(z[2], 0);
        assert_eq!(u16::from_le_bytes([z[3], z[4]]), 65535);
        assert_eq!(u16::from_le_bytes([z[5], z[6]]), !65535);
        // Second block header sits right after the first payload.
        let second = 7 + 65535;
        assert_eq!(z[second], 1); // final
        let len2 = u16::from_le_bytes([z[second + 1], z[second + 2]]);
        assert_eq!(len2 as usize, 70000 - 65535);
        // Trailer is the adler32 of the raw bytes.
        let trailer = &z[z.len() - 4..];
        assert_eq!(trailer, &adler32(&raw).to_be_bytes());
    }

    #[test]
    fn png_structure_is_valid() {
        let img = Image::from_fn(5, 3, |x, y| Pixel::gray((x + y) as f32 / 8.0, 1.0));
        let mut buf = Vec::new();
        write_png_gray(&img, &mut buf).unwrap();
        // Signature.
        assert_eq!(
            &buf[0..8],
            &[0x89, b'P', b'N', b'G', b'\r', b'\n', 0x1A, b'\n']
        );
        // IHDR chunk: length 13, type, 5×3, depth 8, gray.
        assert_eq!(&buf[8..12], &13u32.to_be_bytes());
        assert_eq!(&buf[12..16], b"IHDR");
        assert_eq!(&buf[16..20], &5u32.to_be_bytes());
        assert_eq!(&buf[20..24], &3u32.to_be_bytes());
        assert_eq!(buf[24], 8);
        assert_eq!(buf[25], 0);
        // File ends with IEND + its fixed CRC.
        assert_eq!(&buf[buf.len() - 8..buf.len() - 4], b"IEND");
        assert_eq!(&buf[buf.len() - 4..], &0xAE42_6082u32.to_be_bytes());
    }

    #[test]
    fn large_image_spans_multiple_deflate_blocks() {
        let img = Image::from_fn(300, 300, |x, y| {
            Pixel::gray(((x as u32 * y as u32) % 255) as f32 / 255.0, 1.0)
        });
        let mut buf = Vec::new();
        write_png_gray(&img, &mut buf).unwrap();
        // 300·301 raw bytes > 65535 → at least two stored blocks present.
        assert!(buf.len() > 300 * 301);
    }
}

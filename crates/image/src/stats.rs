//! Image quality metrics used by the evaluation harness and tests.

use crate::image::Image;

/// Mean squared error over all channels of two equal-size images.
pub fn mse(a: &Image, b: &Image) -> f64 {
    assert_eq!((a.width(), a.height()), (b.width(), b.height()));
    let mut acc = 0.0f64;
    for (pa, pb) in a.pixels().iter().zip(b.pixels()) {
        let d = [pa.r - pb.r, pa.g - pb.g, pa.b - pb.b, pa.a - pb.a];
        acc += d.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>();
    }
    acc / (a.area() as f64 * 4.0)
}

/// Peak signal-to-noise ratio in dB (peak = 1.0); `f64::INFINITY` for
/// identical images.
pub fn psnr(a: &Image, b: &Image) -> f64 {
    let m = mse(a, b);
    if m == 0.0 {
        f64::INFINITY
    } else {
        -10.0 * m.log10()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pixel::Pixel;

    fn half_filled() -> Image {
        Image::from_fn(16, 16, |x, _| {
            if x < 8 {
                Pixel::gray(0.5, 0.5)
            } else {
                Pixel::BLANK
            }
        })
    }

    #[test]
    fn mse_and_psnr_basics() {
        let a = half_filled();
        assert_eq!(mse(&a, &a), 0.0);
        assert_eq!(psnr(&a, &a), f64::INFINITY);
        let b = Image::blank(16, 16);
        let m = mse(&a, &b);
        // 128 pixels differ by 0.5 in r,g,b,a of 256·4 channel samples.
        let expect = 128.0 * 4.0 * 0.25 / (256.0 * 4.0);
        assert!((m - expect).abs() < 1e-12);
        assert!(psnr(&a, &b) > 0.0 && psnr(&a, &b).is_finite());
    }
}

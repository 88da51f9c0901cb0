//! Frame accounting: every attempted frame is either verified or failed.

/// Attempted and failed frames plus a digest of every frame hash, so
/// two commits can be compared for pixel changes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    digest: u64,
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            attempted: 0,
            failed: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }
}

impl Tally {
    /// Counts one delivered frame, failed unless `got == expected`.
    pub fn frame(&mut self, expected: u64, got: u64) {
        self.check(got, got == expected);
    }

    /// Counts one delivered frame with hash `got`; `ok` is the verdict
    /// of whatever check applies to it.
    pub fn check(&mut self, got: u64, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
        self.fold(got);
    }

    /// FNV-1a over the bytes of `word`.
    fn fold(&mut self, word: u64) {
        for byte in word.to_le_bytes() {
            self.digest = (self.digest ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Counts one frame that never arrived (refused, rejected, shed or
    /// a transport error).
    pub fn lost(&mut self) {
        self.attempted += 1;
        self.failed += 1;
    }

    /// Marks already counted frames as failed by a later, off-clock
    /// check.
    pub fn fail_counted(&mut self, frames: u64) {
        self.failed += frames;
    }

    /// Folds another caller's tally in, in caller order.
    pub fn merge(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        self.fold(other.digest);
    }

    /// FNV-1a over every frame hash seen. It covers the frames a run
    /// completed, so it is comparable between runs of equal op counts.
    pub fn output_digest(&self) -> u64 {
        self.digest
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    /// The process exit code a run with this tally ends with.
    pub fn exit_code(&self) -> i32 {
        i32::from(!self.correct())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vr_image::{checksum::fnv1a, Image, Pixel};

    #[test]
    fn a_corrupted_frame_fails_the_run() {
        let image = Image::from_fn(16, 16, |x, y| Pixel::gray(f32::from(x + y) / 32.0, 0.5));
        let expected = fnv1a(&image);

        let mut clean = Tally::default();
        clean.frame(expected, fnv1a(&image));
        assert!(clean.correct());
        assert_eq!(clean.exit_code(), 0);

        let mut corrupted = image.clone();
        corrupted.get_mut(3, 4).a = f32::from_bits(corrupted.get(3, 4).a.to_bits() ^ 1);
        let mut tally = clean;
        tally.frame(expected, fnv1a(&corrupted));
        assert_eq!((tally.attempted, tally.failed), (2, 1));
        assert!(!tally.correct());
        assert_ne!(tally.exit_code(), 0);
        assert_ne!(tally.output_digest(), clean.output_digest());
    }

    #[test]
    fn no_frames_is_not_a_correct_run() {
        assert_ne!(Tally::default().exit_code(), 0);
        let mut lost = Tally::default();
        lost.lost();
        assert_eq!((lost.attempted, lost.failed), (1, 1));
    }

    #[test]
    fn merging_keeps_counts_and_order() {
        let mut a = Tally::default();
        a.frame(1, 1);
        let mut b = Tally::default();
        b.frame(2, 3);
        let mut ab = a;
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!((ab.attempted, ab.failed), (2, 1));
        assert_ne!(ab.output_digest(), ba.output_digest());
    }
}

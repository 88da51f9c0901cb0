//! Byte-level (de)serialization of subvolume blocks: the wire format of
//! the partitioning phase's scatter, which distributes the blocks over
//! the network. [`encode_block`]/[`decode_block`] carry a block's
//! placement metadata with its samples, so a rank can reconstruct its
//! block and know where it sits in the global grid.

use std::io;

use crate::grid::Volume;
use crate::partition::Subvolume;

/// Serializes a subvolume block (placement metadata + samples) for the
/// partitioning phase's scatter. Layout: rank `u32`, origin `3×u32`,
/// dims `3×u32`, then raw x-fastest samples.
pub fn encode_block(volume: &Volume, block: &Subvolume) -> Vec<u8> {
    let sub = volume.extract_block(block.origin, block.dims);
    let mut out = Vec::with_capacity(28 + sub.len());
    out.extend_from_slice(&(block.rank as u32).to_le_bytes());
    for v in block.origin.iter().chain(block.dims.iter()) {
        out.extend_from_slice(&(*v as u32).to_le_bytes());
    }
    let dims = sub.dims();
    for z in 0..dims[2] {
        for y in 0..dims[1] {
            for x in 0..dims[0] {
                out.push(sub.get(x, y, z));
            }
        }
    }
    out
}

/// Deserializes a scattered block, returning its placement and samples.
pub fn decode_block(bytes: &[u8]) -> io::Result<(Subvolume, Volume)> {
    if bytes.len() < 28 {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "block message too short",
        ));
    }
    let u = |i: usize| u32::from_le_bytes(bytes[i * 4..i * 4 + 4].try_into().unwrap()) as usize;
    let block = Subvolume {
        rank: u(0),
        origin: [u(1), u(2), u(3)],
        dims: [u(4), u(5), u(6)],
    };
    let expect = block.dims[0] * block.dims[1] * block.dims[2];
    let payload = &bytes[28..];
    if payload.len() != expect {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("block payload {} bytes, expected {expect}", payload.len()),
        ));
    }
    let mut idx = 0;
    let volume = Volume::from_fn(block.dims, |_, _, _| {
        let v = payload[idx];
        idx += 1;
        v
    });
    Ok((block, volume))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_volume() -> Volume {
        Volume::from_fn([7, 5, 3], |x, y, z| (x * 31 + y * 7 + z * 3) as u8)
    }

    #[test]
    fn block_round_trip() {
        let v = sample_volume();
        let block = Subvolume {
            rank: 3,
            origin: [2, 1, 0],
            dims: [4, 3, 2],
        };
        let bytes = encode_block(&v, &block);
        assert_eq!(bytes.len(), 28 + 24);
        let (got_block, got_vol) = decode_block(&bytes).unwrap();
        assert_eq!(got_block, block);
        assert_eq!(got_vol, v.extract_block(block.origin, block.dims));
    }

    #[test]
    fn decode_rejects_short_and_mismatched() {
        assert!(decode_block(&[0u8; 10]).is_err());
        let v = sample_volume();
        let block = Subvolume {
            rank: 0,
            origin: [0, 0, 0],
            dims: [2, 2, 2],
        };
        let mut bytes = encode_block(&v, &block);
        bytes.pop();
        assert!(decode_block(&bytes).is_err());
    }
}

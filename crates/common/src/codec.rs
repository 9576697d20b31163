//! Wire format for inter-worker messages.
//!
//! The paper's IO figures (Figs. 11–13) report *bytes* moved between workers,
//! so the simulated cluster ships real serialized frames rather than Rust
//! values: every message is encoded with this codec, counted, and decoded on
//! the receiving worker. The format is little-endian with LEB128 varints for
//! lengths and ids — close to what a production shuffle (e.g. Spark's
//! UnsafeRow or a protobuf stream) would pay per record.
//!
//! # Sizes are closed-form
//!
//! [`Encode::encoded_len`] has no default body: every implementor states
//! its size arithmetically ([`varint_len`] for each varint, `4·n` for `n`
//! f32 lanes) and never by encoding. The engines *count* bytes far more
//! often than they move them — the batch engine sizes every shuffle record
//! at flush and again at fetch without ever serializing it on the
//! in-process transport — so a size that allocates and serializes turns
//! the cost model into the dominant CPU cost (it once made the MapReduce
//! backend 2.4x slower than Pregel on identical inputs). `to_bytes`
//! presizes its buffer from the same number, so a wrong closed form shows
//! up as `encoded_len() != to_bytes().len()` in the shared size test.
//!
//! # Floats move in bulk
//!
//! f32 payloads go through [`WireWriter::put_f32_lanes`] /
//! [`WireReader::get_f32_lanes_into`]: one reserve and one bounds check
//! per block instead of one per float. The byte layout is exactly that of
//! a per-float `put_f32` loop.

use crate::error::{Error, Result};
use bytes::{Buf, BufMut};

/// Serialize `self` into a growing byte buffer.
pub trait Encode {
    fn encode(&self, w: &mut WireWriter);

    /// Exact encoded size in bytes, in closed form: implementations add up
    /// [`varint_len`]s and lane widths and must not encode to find out
    /// (see the module docs).
    fn encoded_len(&self) -> usize;

    /// Convenience: encode into a fresh, exactly presized `Vec<u8>`.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = WireWriter::with_capacity(self.encoded_len());
        self.encode(&mut w);
        w.into_bytes()
    }
}

/// Deserialize `Self` from a byte cursor.
pub trait Decode: Sized {
    fn decode(r: &mut WireReader<'_>) -> Result<Self>;

    /// Convenience: decode from a complete byte slice, requiring full
    /// consumption (catches framing bugs early).
    fn from_bytes(bytes: &[u8]) -> Result<Self> {
        let mut r = WireReader::new(bytes);
        let v = Self::decode(&mut r)?;
        if !r.is_empty() {
            return Err(Error::Codec(format!(
                "{} trailing bytes after decode",
                r.remaining()
            )));
        }
        Ok(v)
    }
}

/// Append-only byte sink with varint helpers.
#[derive(Default)]
pub struct WireWriter {
    buf: Vec<u8>,
}

impl WireWriter {
    pub fn new() -> Self {
        WireWriter { buf: Vec::new() }
    }

    pub fn with_capacity(cap: usize) -> Self {
        WireWriter {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Write into `buf`'s allocation, cleared first: the kept-buffer form
    /// of [`WireWriter::new`]. [`WireWriter::into_bytes`] hands it back.
    pub fn reuse(mut buf: Vec<u8>) -> Self {
        buf.clear();
        WireWriter { buf }
    }

    /// Make room for `additional` more bytes.
    pub fn reserve(&mut self, additional: usize) {
        self.buf.reserve(additional);
    }

    pub fn len(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// LEB128 unsigned varint: 1 byte for values < 128, which covers almost
    /// all lengths and small ids in practice.
    pub fn put_varint(&mut self, mut v: u64) {
        loop {
            let byte = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.put_u8(byte);
                return;
            }
            self.buf.put_u8(byte | 0x80);
        }
    }

    pub fn put_u8(&mut self, v: u8) {
        self.buf.put_u8(v);
    }

    pub fn put_u32(&mut self, v: u32) {
        self.buf.put_u32_le(v);
    }

    pub fn put_u64(&mut self, v: u64) {
        self.buf.put_u64_le(v);
    }

    pub fn put_f32(&mut self, v: f32) {
        self.buf.put_f32_le(v);
    }

    pub fn put_f64(&mut self, v: f64) {
        self.buf.put_f64_le(v);
    }

    /// Raw f32 lanes, no length prefix: `v.len()` little-endian 4-byte
    /// values, byte-identical to a `put_f32` loop. One reserve, then the
    /// lanes are converted a stack chunk at a time and appended — on a
    /// little-endian target each chunk compiles down to a copy.
    pub fn put_f32_lanes(&mut self, v: &[f32]) {
        const CHUNK: usize = 64;
        self.buf.reserve(v.len() * 4);
        let mut tmp = [0u8; CHUNK * 4];
        for lanes in v.chunks(CHUNK) {
            for (dst, x) in tmp.chunks_exact_mut(4).zip(lanes) {
                dst.copy_from_slice(&x.to_le_bytes());
            }
            self.buf.extend_from_slice(&tmp[..lanes.len() * 4]);
        }
    }

    /// Length-prefixed f32 slice — the dominant payload (embeddings).
    pub fn put_f32_slice(&mut self, v: &[f32]) {
        self.put_varint(v.len() as u64);
        self.put_f32_lanes(v);
    }

    /// Length-prefixed raw bytes.
    pub fn put_bytes(&mut self, v: &[u8]) {
        self.put_varint(v.len() as u64);
        self.put_raw(v);
    }

    /// Raw bytes, no length prefix (e.g. f32 lanes copied verbatim from
    /// another frame).
    pub fn put_raw(&mut self, v: &[u8]) {
        self.buf.put_slice(v);
    }

    pub fn put_str(&mut self, v: &str) {
        self.put_bytes(v.as_bytes());
    }
}

/// Cursor over a received frame.
pub struct WireReader<'a> {
    buf: &'a [u8],
}

impl<'a> WireReader<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf }
    }

    pub fn remaining(&self) -> usize {
        self.buf.len()
    }

    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    fn need(&self, n: usize) -> Result<()> {
        if self.buf.remaining() < n {
            Err(Error::Codec(format!(
                "need {n} bytes, only {} remain",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    pub fn get_varint(&mut self) -> Result<u64> {
        let mut v: u64 = 0;
        let mut shift = 0u32;
        loop {
            self.need(1)?;
            let byte = self.buf.get_u8();
            if shift >= 64 {
                return Err(Error::Codec("varint overflow".into()));
            }
            v |= ((byte & 0x7f) as u64) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
            shift += 7;
        }
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        self.need(1)?;
        Ok(self.buf.get_u8())
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        self.need(4)?;
        Ok(self.buf.get_u32_le())
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        self.need(8)?;
        Ok(self.buf.get_u64_le())
    }

    pub fn get_f32(&mut self) -> Result<f32> {
        self.need(4)?;
        Ok(self.buf.get_f32_le())
    }

    pub fn get_f64(&mut self) -> Result<f64> {
        self.need(8)?;
        Ok(self.buf.get_f64_le())
    }

    /// A varint that must fit `u32` (degrees, slots, counts): a peer that
    /// sends more gets a typed error, never a silently truncated value.
    pub fn get_varint_u32(&mut self) -> Result<u32> {
        let v = self.get_varint()?;
        u32::try_from(v).map_err(|_| Error::Codec(format!("value {v} exceeds u32 range")))
    }

    /// Append `n` raw f32 lanes (no length prefix) to `out`. The claimed
    /// length is checked against the bytes actually present *before*
    /// anything is reserved, so a hostile count cannot make us allocate.
    pub fn get_f32_lanes_into(&mut self, n: usize, out: &mut Vec<f32>) -> Result<()> {
        let byte_len = n
            .checked_mul(4)
            .ok_or_else(|| Error::Codec(format!("f32 lane count {n} overflows")))?;
        let lanes = self.get_raw(byte_len)?;
        out.reserve(n);
        out.extend(
            lanes
                .chunks_exact(4)
                .map(|b| f32::from_le_bytes([b[0], b[1], b[2], b[3]])),
        );
        Ok(())
    }

    /// Borrow the next `n` raw bytes of the frame.
    pub fn get_raw(&mut self, n: usize) -> Result<&'a [u8]> {
        self.need(n)?;
        let (raw, rest) = self.buf.split_at(n);
        self.buf = rest;
        Ok(raw)
    }

    pub fn get_f32_vec(&mut self) -> Result<Vec<f32>> {
        let n = self.get_varint()? as usize;
        let mut out = Vec::new();
        self.get_f32_lanes_into(n, &mut out)?;
        Ok(out)
    }

    pub fn get_bytes(&mut self) -> Result<Vec<u8>> {
        let n = self.get_varint()? as usize;
        self.need(n)?;
        let mut out = vec![0u8; n];
        self.buf.copy_to_slice(&mut out);
        Ok(out)
    }

    pub fn get_string(&mut self) -> Result<String> {
        let b = self.get_bytes()?;
        String::from_utf8(b).map_err(|e| Error::Codec(format!("invalid utf8: {e}")))
    }
}

// ---- blanket implementations for common payload shapes -------------------

/// References encode as their referent: lets engines shuffle borrowed
/// records (e.g. a reusable inference plan's node records) without cloning
/// the whole input set per run.
impl<T: Encode + ?Sized> Encode for &T {
    fn encode(&self, w: &mut WireWriter) {
        (**self).encode(w)
    }

    fn encoded_len(&self) -> usize {
        (**self).encoded_len()
    }
}

impl Encode for u64 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(*self);
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self)
    }
}

impl Decode for u64 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_varint()
    }
}

impl Encode for u32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(*self as u64);
    }

    fn encoded_len(&self) -> usize {
        varint_len(*self as u64)
    }
}

impl Decode for u32 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_varint_u32()
    }
}

impl Encode for f32 {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f32(*self);
    }

    fn encoded_len(&self) -> usize {
        4
    }
}

impl Decode for f32 {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_f32()
    }
}

impl Encode for Vec<f32> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_f32_slice(self);
    }

    fn encoded_len(&self) -> usize {
        f32_slice_len(self.len())
    }
}

impl Decode for Vec<f32> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_f32_vec()
    }
}

impl Encode for Vec<u64> {
    fn encode(&self, w: &mut WireWriter) {
        w.put_varint(self.len() as u64);
        for &x in self {
            w.put_varint(x);
        }
    }

    fn encoded_len(&self) -> usize {
        varint_seq_len(self)
    }
}

impl Decode for Vec<u64> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        let n = r.get_varint()? as usize;
        let mut out = Vec::with_capacity(n.min(1 << 20));
        for _ in 0..n {
            out.push(r.get_varint()?);
        }
        Ok(out)
    }
}

impl Encode for String {
    fn encode(&self, w: &mut WireWriter) {
        w.put_str(self);
    }

    fn encoded_len(&self) -> usize {
        bytes_len(self.len())
    }
}

impl Decode for String {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        r.get_string()
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, w: &mut WireWriter) {
        self.0.encode(w);
        self.1.encode(w);
    }

    fn encoded_len(&self) -> usize {
        self.0.encoded_len() + self.1.encoded_len()
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, w: &mut WireWriter) {
        match self {
            None => w.put_u8(0),
            Some(v) => {
                w.put_u8(1);
                v.encode(w);
            }
        }
    }

    fn encoded_len(&self) -> usize {
        1 + self.as_ref().map_or(0, Encode::encoded_len)
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(r: &mut WireReader<'_>) -> Result<Self> {
        match r.get_u8()? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(r)?)),
            tag => Err(Error::Codec(format!("invalid Option tag {tag}"))),
        }
    }
}

/// Number of bytes a varint encoding of `v` occupies.
pub fn varint_len(v: u64) -> usize {
    if v == 0 {
        return 1;
    }
    (64 - v.leading_zeros() as usize).div_ceil(7)
}

/// Size of [`WireWriter::put_f32_slice`] output for `n` lanes.
pub fn f32_slice_len(n: usize) -> usize {
    varint_len(n as u64) + n * 4
}

/// Size of [`WireWriter::put_bytes`] / `put_str` output for `n` bytes.
pub fn bytes_len(n: usize) -> usize {
    varint_len(n as u64) + n
}

/// Size of a count-prefixed run of varints (`varint n`, then each value).
pub fn varint_seq_len(v: &[u64]) -> usize {
    varint_len(v.len() as u64) + v.iter().map(|&x| varint_len(x)).sum::<usize>()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn varint_roundtrip_edges() {
        for v in [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX] {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            assert_eq!(bytes.len(), varint_len(v), "len mismatch for {v}");
            let mut r = WireReader::new(&bytes);
            assert_eq!(r.get_varint().unwrap(), v);
            assert!(r.is_empty());
        }
    }

    #[test]
    fn truncated_frame_is_an_error_not_a_panic() {
        let v = vec![1.0f32, 2.0, 3.0];
        let bytes = v.to_bytes();
        for cut in 0..bytes.len() {
            let res = Vec::<f32>::from_bytes(&bytes[..cut]);
            assert!(res.is_err(), "cut at {cut} should fail");
        }
        assert_eq!(Vec::<f32>::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 5u64.to_bytes();
        bytes.push(0);
        assert!(u64::from_bytes(&bytes).is_err());
    }

    #[test]
    fn option_roundtrip() {
        let some: Option<Vec<f32>> = Some(vec![1.5, -2.5]);
        let none: Option<Vec<f32>> = None;
        assert_eq!(
            Option::<Vec<f32>>::from_bytes(&some.to_bytes()).unwrap(),
            some
        );
        assert_eq!(
            Option::<Vec<f32>>::from_bytes(&none.to_bytes()).unwrap(),
            none
        );
        assert!(Option::<Vec<f32>>::from_bytes(&[7u8]).is_err());
    }

    /// The per-float loop the lane writer replaced, kept as the byte-layout
    /// reference.
    fn reference_lanes(v: &[f32]) -> Vec<u8> {
        let mut w = WireWriter::new();
        for &x in v {
            w.put_f32(x);
        }
        w.into_bytes()
    }

    fn bulk_lanes(v: &[f32]) -> Vec<u8> {
        let mut w = WireWriter::new();
        w.put_f32_lanes(v);
        w.into_bytes()
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn lanes_keep_every_bit_pattern() {
        let special = [
            0.0f32,
            -0.0,
            f32::INFINITY,
            f32::NEG_INFINITY,
            f32::MIN_POSITIVE,
            f32::from_bits(1),           // smallest subnormal
            f32::from_bits(0x807f_ffff), // largest negative subnormal
            f32::NAN,
            f32::from_bits(0x7fc0_1234), // quiet NaN with payload
            f32::from_bits(0xff80_0001), // signalling NaN, sign set
            f32::MAX,
            f32::MIN,
        ];
        // Straddle the writer's chunk boundary in both directions.
        for n in [0usize, 1, 11, 12, 63, 64, 65, 128, 200] {
            let v: Vec<f32> = (0..n).map(|i| special[i % special.len()]).collect();
            let bytes = bulk_lanes(&v);
            assert_eq!(bytes, reference_lanes(&v), "layout differs at n={n}");
            let mut r = WireReader::new(&bytes);
            let mut got = vec![7.0f32]; // appends, never overwrites
            r.get_f32_lanes_into(n, &mut got).unwrap();
            assert!(r.is_empty());
            assert_eq!(got[0], 7.0);
            assert_eq!(bits(&got[1..]), bits(&v));
        }
    }

    #[test]
    fn truncated_lane_block_is_a_codec_error() {
        let v: Vec<f32> = (0..70).map(|i| i as f32).collect();
        let bytes = bulk_lanes(&v);
        for cut in 0..bytes.len() {
            let mut out = Vec::new();
            let err = WireReader::new(&bytes[..cut])
                .get_f32_lanes_into(v.len(), &mut out)
                .unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "cut {cut}: {err:?}");
            assert_eq!(out.capacity(), 0, "cut {cut} allocated before validating");
        }
    }

    #[test]
    fn hostile_lane_counts_fail_before_allocating() {
        // Counts whose byte length overflows, or merely dwarfs the frame,
        // must be rejected from the bytes present — reserving for them
        // would abort the process.
        for n in [usize::MAX, usize::MAX / 4 + 1, 1 << 40] {
            let mut out = Vec::new();
            let err = WireReader::new(&[0u8; 16])
                .get_f32_lanes_into(n, &mut out)
                .unwrap_err();
            assert!(matches!(err, Error::Codec(_)), "{err:?}");
            assert_eq!(out.capacity(), 0);
        }
        // Same through the length-prefixed entry point.
        let mut w = WireWriter::new();
        w.put_varint(1 << 40);
        w.put_f32(1.0);
        assert!(matches!(
            Vec::<f32>::from_bytes(&w.into_bytes()),
            Err(Error::Codec(_))
        ));
    }

    #[test]
    fn varint_u32_rejects_wide_values() {
        for (v, ok) in [
            (0u64, true),
            (u32::MAX as u64, true),
            (1 << 32, false),
            (u64::MAX, false),
        ] {
            let bytes = v.to_bytes();
            let got = WireReader::new(&bytes).get_varint_u32();
            match got {
                Ok(x) => assert!(ok && x as u64 == v, "{v} decoded to {x}"),
                Err(e) => assert!(!ok && matches!(e, Error::Codec(_)), "{v}: {e:?}"),
            }
            assert_eq!(u32::from_bytes(&bytes).is_ok(), ok);
        }
    }

    #[test]
    fn pair_roundtrip() {
        let p: (u64, Vec<f32>) = (99, vec![0.25, 0.5]);
        let got = <(u64, Vec<f32>)>::from_bytes(&p.to_bytes()).unwrap();
        assert_eq!(got, p);
    }

    proptest! {
        #[test]
        fn prop_varint_roundtrip(v in any::<u64>()) {
            let mut w = WireWriter::new();
            w.put_varint(v);
            let bytes = w.into_bytes();
            let mut r = WireReader::new(&bytes);
            prop_assert_eq!(r.get_varint().unwrap(), v);
            prop_assert!(r.is_empty());
        }

        #[test]
        fn prop_f32_vec_roundtrip(v in proptest::collection::vec(any::<f32>(), 0..256)) {
            let bytes = v.to_bytes();
            let got = Vec::<f32>::from_bytes(&bytes).unwrap();
            // NaN-safe bitwise comparison
            prop_assert_eq!(got.len(), v.len());
            for (a, b) in got.iter().zip(v.iter()) {
                prop_assert_eq!(a.to_bits(), b.to_bits());
            }
        }

        #[test]
        fn prop_bulk_lanes_match_per_float_loop(
            v in proptest::collection::vec(any::<f32>(), 0..300),
            cut in any::<usize>(),
        ) {
            let bytes = bulk_lanes(&v);
            prop_assert_eq!(&bytes, &reference_lanes(&v));
            let mut got = Vec::new();
            WireReader::new(&bytes).get_f32_lanes_into(v.len(), &mut got).unwrap();
            prop_assert_eq!(bits(&got), bits(&v));
            if !bytes.is_empty() {
                let cut = cut % bytes.len();
                let mut out = Vec::new();
                let res = WireReader::new(&bytes[..cut]).get_f32_lanes_into(v.len(), &mut out);
                prop_assert!(matches!(res, Err(Error::Codec(_))));
            }
        }

        #[test]
        fn prop_u64_vec_roundtrip(v in proptest::collection::vec(any::<u64>(), 0..256)) {
            let got = Vec::<u64>::from_bytes(&v.to_bytes()).unwrap();
            prop_assert_eq!(got, v);
        }

        #[test]
        fn prop_string_roundtrip(s in ".{0,64}") {
            let got = String::from_bytes(&s.to_bytes()).unwrap();
            prop_assert_eq!(got, s);
        }

        #[test]
        fn prop_random_bytes_never_panic(b in proptest::collection::vec(any::<u8>(), 0..128)) {
            // Decoding arbitrary garbage must fail gracefully, never panic.
            let _ = Vec::<f32>::from_bytes(&b);
            let _ = Vec::<u64>::from_bytes(&b);
            let _ = String::from_bytes(&b);
            let _ = Option::<Vec<f32>>::from_bytes(&b);
        }
    }
}

//! Offline stand-in for the `bytes` crate.
//!
//! The workspace builds without network access, so the real `bytes` crate
//! cannot be vendored. The wire codec only uses the little-endian accessor
//! subset of `Buf` (for `&[u8]`) and `BufMut` (for `Vec<u8>`), which this
//! shim reimplements with identical semantics: readers advance the slice,
//! writers append. Like the real crate, the fixed-width getters panic when
//! the buffer is too short — callers bounds-check first (see
//! `WireReader::need`).

#![forbid(unsafe_code)]

/// Read-side cursor operations over a shrinking `&[u8]`.
pub trait Buf {
    fn remaining(&self) -> usize;
    fn get_u8(&mut self) -> u8;
    fn get_u32_le(&mut self) -> u32;
    fn get_u64_le(&mut self) -> u64;
    fn get_f32_le(&mut self) -> f32;
    fn get_f64_le(&mut self) -> f64;
    fn copy_to_slice(&mut self, dst: &mut [u8]);
}

impl Buf for &[u8] {
    fn remaining(&self) -> usize {
        self.len()
    }

    fn get_u8(&mut self) -> u8 {
        let v = self[0];
        *self = &self[1..];
        v
    }

    fn get_u32_le(&mut self) -> u32 {
        let (head, rest) = self.split_at(4);
        *self = rest;
        u32::from_le_bytes(head.try_into().unwrap())
    }

    fn get_u64_le(&mut self) -> u64 {
        let (head, rest) = self.split_at(8);
        *self = rest;
        u64::from_le_bytes(head.try_into().unwrap())
    }

    fn get_f32_le(&mut self) -> f32 {
        f32::from_bits(self.get_u32_le())
    }

    fn get_f64_le(&mut self) -> f64 {
        f64::from_bits(self.get_u64_le())
    }

    fn copy_to_slice(&mut self, dst: &mut [u8]) {
        let (head, rest) = self.split_at(dst.len());
        dst.copy_from_slice(head);
        *self = rest;
    }
}

/// Write-side append operations for a growing `Vec<u8>`.
pub trait BufMut {
    fn put_u8(&mut self, v: u8);
    fn put_u32_le(&mut self, v: u32);
    fn put_u64_le(&mut self, v: u64);
    fn put_f32_le(&mut self, v: f32);
    fn put_f64_le(&mut self, v: f64);
    fn put_slice(&mut self, src: &[u8]);
}

impl BufMut for Vec<u8> {
    fn put_u8(&mut self, v: u8) {
        self.push(v);
    }

    fn put_u32_le(&mut self, v: u32) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_u64_le(&mut self, v: u64) {
        self.extend_from_slice(&v.to_le_bytes());
    }

    fn put_f32_le(&mut self, v: f32) {
        self.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn put_f64_le(&mut self, v: f64) {
        self.extend_from_slice(&v.to_bits().to_le_bytes());
    }

    fn put_slice(&mut self, src: &[u8]) {
        self.extend_from_slice(src);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_all_widths() {
        let mut buf: Vec<u8> = Vec::new();
        buf.put_u8(7);
        buf.put_u32_le(0xdead_beef);
        buf.put_u64_le(0x0123_4567_89ab_cdef);
        buf.put_f32_le(1.5);
        buf.put_f64_le(-2.25);
        buf.put_slice(b"xyz");
        let mut r: &[u8] = &buf;
        assert_eq!(r.get_u8(), 7);
        assert_eq!(r.get_u32_le(), 0xdead_beef);
        assert_eq!(r.get_u64_le(), 0x0123_4567_89ab_cdef);
        assert_eq!(r.get_f32_le(), 1.5);
        assert_eq!(r.get_f64_le(), -2.25);
        let mut out = [0u8; 3];
        r.copy_to_slice(&mut out);
        assert_eq!(&out, b"xyz");
        assert_eq!(r.remaining(), 0);
    }

    #[test]
    fn nan_bits_preserved() {
        let weird = f32::from_bits(0x7fc0_1234);
        let mut buf: Vec<u8> = Vec::new();
        buf.put_f32_le(weird);
        let mut r: &[u8] = &buf;
        assert_eq!(r.get_f32_le().to_bits(), weird.to_bits());
    }
}

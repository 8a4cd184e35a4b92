//! Byte-level encoding of calls, for shipping through registered
//! memory.
//!
//! §4 of the paper: "Before propagation, a call is assigned a unique
//! id, paired with its dependency arrays and is serialized into a byte
//! stream." This module defines the compact little-endian varint codec
//! the runtime uses, the [`Wire`] trait each data type's update enum
//! implements so its calls can live in ring-buffer entries and summary
//! slots, and [`calls!`](crate::calls), which writes that impl from the
//! enum's one list of methods.

use std::fmt;

/// Error returned when decoding malformed bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecodeError;

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed wire encoding")
    }
}

impl std::error::Error for DecodeError {}

/// A cursor over bytes being decoded.
#[derive(Debug)]
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Consume one byte.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] at end of input.
    pub fn u8(&mut self) -> Result<u8, DecodeError> {
        let b = *self.buf.get(self.pos).ok_or(DecodeError)?;
        self.pos += 1;
        Ok(b)
    }

    /// Consume a LEB128 varint.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or overlong encoding.
    pub fn varint(&mut self) -> Result<u64, DecodeError> {
        let mut value = 0u64;
        let mut shift = 0u32;
        loop {
            let b = self.u8()?;
            if shift >= 64 {
                return Err(DecodeError);
            }
            value |= u64::from(b & 0x7f) << shift;
            if b & 0x80 == 0 {
                return Ok(value);
            }
            shift += 7;
        }
    }

    /// Consume a signed varint (zigzag).
    ///
    /// # Errors
    ///
    /// As [`Reader::varint`].
    pub fn svarint(&mut self) -> Result<i64, DecodeError> {
        let z = self.varint()?;
        Ok(((z >> 1) as i64) ^ -((z & 1) as i64))
    }

    /// Consume `len` raw bytes.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation.
    pub fn bytes(&mut self, len: usize) -> Result<&'a [u8], DecodeError> {
        if self.remaining() < len {
            return Err(DecodeError);
        }
        let s = &self.buf[self.pos..self.pos + len];
        self.pos += len;
        Ok(s)
    }

    /// Consume a length-prefixed byte string.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation.
    pub fn lp_bytes(&mut self) -> Result<&'a [u8], DecodeError> {
        let len = self.varint()? as usize;
        self.bytes(len)
    }

    /// Consume a length-prefixed UTF-8 string.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] on truncation or invalid UTF-8.
    pub fn lp_str(&mut self) -> Result<&'a str, DecodeError> {
        std::str::from_utf8(self.lp_bytes()?).map_err(|_| DecodeError)
    }
}

/// Append-only encoding helpers over a `Vec<u8>`.
#[derive(Debug, Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// An empty writer.
    pub fn new() -> Self {
        Writer::default()
    }

    /// A writer reusing `buf`'s allocation (contents are cleared).
    /// Recover the buffer with [`into_vec`](Self::into_vec) — this is
    /// the allocation-free encode cycle used by the runtime hot path.
    pub fn from_vec(mut buf: Vec<u8>) -> Self {
        buf.clear();
        Writer { buf }
    }

    /// The encoded bytes.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Current length.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Append one byte.
    pub fn u8(&mut self, b: u8) {
        self.buf.push(b);
    }

    /// Append a LEB128 varint.
    pub fn varint(&mut self, mut v: u64) {
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                self.buf.push(b);
                return;
            }
            self.buf.push(b | 0x80);
        }
    }

    /// Append a signed varint (zigzag).
    pub fn svarint(&mut self, v: i64) {
        self.varint(((v << 1) ^ (v >> 63)) as u64);
    }

    /// Append raw bytes.
    pub fn bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Append a length-prefixed byte string.
    pub fn lp_bytes(&mut self, bytes: &[u8]) {
        self.varint(bytes.len() as u64);
        self.bytes(bytes);
    }

    /// Append a length-prefixed UTF-8 string.
    pub fn lp_str(&mut self, s: &str) {
        self.lp_bytes(s.as_bytes());
    }
}

/// Types that can cross the wire (live in ring entries and summary
/// slots).
pub trait Wire: Sized {
    /// Append the encoding of `self` to the writer.
    fn encode(&self, w: &mut Writer);

    /// Decode one value from the reader.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the bytes are malformed.
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError>;

    /// Convenience: encode into a fresh vector.
    fn to_bytes(&self) -> Vec<u8> {
        let mut w = Writer::new();
        self.encode(&mut w);
        w.into_vec()
    }

    /// Convenience: decode from a complete buffer.
    ///
    /// # Errors
    ///
    /// [`DecodeError`] if the bytes are malformed.
    fn from_bytes(bytes: &[u8]) -> Result<Self, DecodeError> {
        Self::decode(&mut Reader::new(bytes))
    }
}

impl Wire for u64 {
    fn encode(&self, w: &mut Writer) {
        w.varint(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.varint()
    }
}

/// Travels as a varint; a decoded value above `u32::MAX` is a
/// malformed message, not a silent truncation to some other index.
impl Wire for u32 {
    fn encode(&self, w: &mut Writer) {
        w.varint(u64::from(*self));
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        u32::try_from(r.varint()?).map_err(|_| DecodeError)
    }
}

impl Wire for i64 {
    fn encode(&self, w: &mut Writer) {
        w.svarint(*self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        r.svarint()
    }
}

impl Wire for String {
    fn encode(&self, w: &mut Writer) {
        w.lp_str(self);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok(r.lp_str()?.to_owned())
    }
}

impl<T: Wire> Wire for Vec<T> {
    fn encode(&self, w: &mut Writer) {
        w.varint(self.len() as u64);
        for item in self {
            item.encode(w);
        }
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        let len = r.varint()? as usize;
        // Guard against absurd lengths from corrupt buffers.
        if len > r.remaining() {
            return Err(DecodeError);
        }
        let mut v = Vec::with_capacity(len);
        for _ in 0..len {
            v.push(T::decode(r)?);
        }
        Ok(v)
    }
}

impl<A: Wire, B: Wire> Wire for (A, B) {
    fn encode(&self, w: &mut Writer) {
        self.0.encode(w);
        self.1.encode(w);
    }
    fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
        Ok((A::decode(r)?, B::decode(r)?))
    }
}

/// Declare the call list of an update enum once.
///
/// ```
/// use hamband_core::object::Methods;
/// use hamband_core::wire::Wire;
///
/// #[derive(Debug, Clone, PartialEq)]
/// pub enum StockUpdate {
///     Restock(Vec<(u64, u32)>),
///     Ship { item: u64, units: u32 },
/// }
///
/// hamband_core::calls! {
///     StockUpdate {
///         RESTOCK = "restock" => Restock(batch),
///         SHIP = "ship" => Ship { item, units },
///     }
/// }
///
/// let call = StockUpdate::Ship { item: 7, units: 2 };
/// assert_eq!(call.method(), SHIP);
/// assert_eq!(StockUpdate::NAMES[SHIP.index()], "ship");
/// assert_eq!(call.to_bytes(), [1, 7, 2]);
/// assert_eq!(StockUpdate::from_bytes(&[1, 7, 2]), Ok(call));
/// ```
///
/// Each line names a method's [`MethodId`](crate::ids::MethodId)
/// constant, its name, and the enum variant that carries its calls
/// with one binder per field. From the one list come, in step by
/// construction: the `pub const`s (dense, in declaration order);
/// `impl` [`Methods`](crate::object::Methods), which
/// [`ObjectSpec`](crate::object::ObjectSpec)'s `method_names`,
/// `method_of` and `method_count` read; and `impl Wire`: one tag byte,
/// the method index, then the fields in the order written here, each
/// through its own [`Wire`].
///
/// Two more forms: `calls! { untagged Enum { CONST = "name" =>
/// Variant(..) } }` for an enum with a single method, whose calls
/// travel without the tag byte; and the codec alone, for a tagged
/// union or a struct that is not a call list — `calls! { wire Enum {
/// Variant { a, b }, Unit, .. } }`, `calls! { wire struct Name { a, b
/// } }`.
#[macro_export]
macro_rules! calls {
    ($enum:ident { $($konst:ident = $name:literal => $variant:ident
            $(($($t:ident),*))? $({$($s:ident),*})?),+ $(,)? }) => {
        $crate::calls!(@methods $enum { $($konst = $name => $variant),+ });
        $crate::calls!(@wire true $enum { $($variant $(($($t),*))? $({$($s),*})?),+ });
    };
    (untagged $enum:ident { $konst:ident = $name:literal => $variant:ident
            $(($($t:ident),*))? $({$($s:ident),*})? $(,)? }) => {
        $crate::calls!(@methods $enum { $konst = $name => $variant });
        $crate::calls!(@wire false $enum { $variant $(($($t),*))? $({$($s),*})? });
    };
    (wire struct $name:ident { $($f:ident),+ $(,)? }) => {
        const _: () = {
            use $crate::wire::{DecodeError, Reader, Wire, Writer};
            impl Wire for $name {
                fn encode(&self, w: &mut Writer) {
                    $(Wire::encode(&self.$f, w);)+
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    Ok($name { $($f: Wire::decode(r)?),+ })
                }
            }
        };
    };
    (wire $enum:ident { $($body:tt)+ }) => {
        $crate::calls!(@wire true $enum { $($body)+ });
    };
    (@methods $enum:ident { $($konst:ident = $name:literal => $variant:ident),+ }) => {
        $crate::calls!(@consts 0; $($konst $name)+);
        impl $crate::object::Methods for $enum {
            const NAMES: &'static [&'static str] = &[$($name),+];

            fn method(&self) -> $crate::ids::MethodId {
                match self { $($enum::$variant { .. } => $konst),+ }
            }
        }
    };
    (@consts $index:expr;) => {};
    (@consts $index:expr; $konst:ident $name:literal $($rest:tt)*) => {
        #[doc = concat!("Method index of `", $name, "`.")]
        pub const $konst: $crate::ids::MethodId = $crate::ids::MethodId($index);
        $crate::calls!(@consts $index + 1; $($rest)*);
    };
    // The tag of a variant is its position in the list; `$tagged` is
    // `false` only for a single variant, which then travels bare.
    (@wire $tagged:literal $enum:ident { $($variant:ident
            $(($($t:ident),*))? $({$($s:ident),*})?),+ $(,)? }) => {
        const _: () = {
            use $crate::wire::{DecodeError, Reader, Wire, Writer};
            enum WireTag { $($variant),+ }
            impl Wire for $enum {
                fn encode(&self, w: &mut Writer) {
                    match self {
                        $($enum::$variant $(($($t),*))? $({$($s),*})? => {
                            if $tagged {
                                w.u8(WireTag::$variant as u8);
                            }
                            $($(Wire::encode($t, w);)*)? $($(Wire::encode($s, w);)*)?
                        })+
                    }
                }
                fn decode(r: &mut Reader<'_>) -> Result<Self, DecodeError> {
                    let tag = if $tagged { r.u8()? } else { 0 };
                    $(if tag == WireTag::$variant as u8 {
                        $($(let $t = Wire::decode(r)?;)*)? $($(let $s = Wire::decode(r)?;)*)?
                        return Ok($enum::$variant $(($($t),*))? $({$($s),*})?);
                    })+
                    Err(DecodeError)
                }
            }
        };
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn varint_roundtrip() {
        let values = [0u64, 1, 127, 128, 300, u32::MAX as u64, u64::MAX];
        for v in values {
            let mut w = Writer::new();
            w.varint(v);
            let bytes = w.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.varint().unwrap(), v);
            assert_eq!(r.remaining(), 0);
        }
    }

    #[test]
    fn svarint_roundtrip() {
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            let mut w = Writer::new();
            w.svarint(v);
            let bytes = w.into_vec();
            let mut r = Reader::new(&bytes);
            assert_eq!(r.svarint().unwrap(), v);
        }
    }

    #[test]
    fn truncated_input_errors() {
        let mut r = Reader::new(&[0x80]); // continuation bit, no next byte
        assert_eq!(r.varint(), Err(DecodeError));
        let mut r2 = Reader::new(&[5, b'a', b'b']); // claims 5 bytes, has 2
        assert_eq!(r2.lp_bytes(), Err(DecodeError));
    }

    #[test]
    fn overlong_varint_errors() {
        let bytes = [0xff; 11];
        let mut r = Reader::new(&bytes);
        assert_eq!(r.varint(), Err(DecodeError));
    }

    #[test]
    fn string_and_vec_roundtrip() {
        let v: Vec<String> = vec!["hello".into(), "".into(), "höla".into()];
        let bytes = v.to_bytes();
        assert_eq!(Vec::<String>::from_bytes(&bytes).unwrap(), v);
    }

    #[test]
    fn tuple_roundtrip() {
        let v: (u64, i64) = (42, -7);
        assert_eq!(<(u64, i64)>::from_bytes(&v.to_bytes()).unwrap(), v);
    }

    #[test]
    fn vec_length_bomb_rejected() {
        let mut w = Writer::new();
        w.varint(1 << 40);
        let bytes = w.into_vec();
        assert!(Vec::<u64>::from_bytes(&bytes).is_err());
    }

    #[test]
    fn invalid_utf8_rejected() {
        let mut w = Writer::new();
        w.lp_bytes(&[0xff, 0xfe]);
        let bytes = w.into_vec();
        assert!(String::from_bytes(&bytes).is_err());
    }

    #[test]
    fn writer_accessors() {
        let mut w = Writer::new();
        assert!(w.is_empty());
        w.u8(7);
        assert_eq!(w.len(), 1);
        assert!(!w.is_empty());
        assert_eq!(w.into_vec(), vec![7]);
    }
}

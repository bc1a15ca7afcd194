//! # graphalytics-codec
//!
//! The one binary codec behind every byte layout the workspace writes:
//! the pregel engine's checkpoint snapshots, the distributed runtime's
//! wire frames and the telemetry spans its worker processes ship back.
//!
//! The format is deliberately dumb — little-endian fixed-width fields,
//! length-prefixed sequences, no compression — so `decode(encode(x)) == x`
//! and `encode(decode(b)) == b` hold *byte for byte*, the property the
//! checkpoint round-trip suite pins with generated graphs. f64 travels as
//! its IEEE bit pattern, so NaN payloads and signed zeros survive too.
//!
//! A compound type states its layout once, as a field list given to
//! [`layout!`]; its encoder and decoder are both derived from that list,
//! so the two cannot drift apart.

/// Fixed binary encoding. Implemented here for the primitives, sequences
/// and tuples the layouts are built from; other crates implement it for
/// their own types with [`layout!`].
pub trait Codec: Sized {
    /// Appends the encoding of `self` to `out`.
    fn encode_into(&self, out: &mut Vec<u8>);
    /// Decodes one value starting at `*pos`, advancing it. `None` on
    /// truncated or malformed input.
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self>;

    /// Appends the values of `items` back to back. `u8` overrides this
    /// with one slice copy.
    fn encode_slice(items: &[Self], out: &mut Vec<u8>) {
        for item in items {
            item.encode_into(out);
        }
    }

    /// Decodes `len` values written by [`Codec::encode_slice`]. `u8`
    /// overrides this with one slice copy.
    fn decode_vec(buf: &[u8], pos: &mut usize, len: usize) -> Option<Vec<Self>> {
        // Every value but `()` takes at least one byte, so the bytes left
        // bound what a well-formed input can need.
        let mut v = Vec::with_capacity(len.min(buf.len().saturating_sub(*pos)));
        for _ in 0..len {
            v.push(Self::decode_from(buf, pos)?);
        }
        Some(v)
    }
}

macro_rules! impl_codec_le {
    ($($t:ty),*) => {$(
        impl Codec for $t {
            #[inline]
            fn encode_into(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
                const N: usize = std::mem::size_of::<$t>();
                let bytes = buf.get(*pos..*pos + N)?;
                *pos += N;
                Some(<$t>::from_le_bytes(bytes.try_into().ok()?))
            }
        }
    )*};
}

impl_codec_le!(u16, u32, u64, i64);

impl Codec for u8 {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self);
    }
    #[inline]
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let b = *buf.get(*pos)?;
        *pos += 1;
        Some(b)
    }
    #[inline]
    fn encode_slice(items: &[u8], out: &mut Vec<u8>) {
        out.extend_from_slice(items);
    }
    #[inline]
    fn decode_vec(buf: &[u8], pos: &mut usize, len: usize) -> Option<Vec<u8>> {
        let bytes = buf.get(*pos..pos.checked_add(len)?)?;
        *pos += len;
        Some(bytes.to_vec())
    }
}

/// Travels as a `u64`, so the layout does not depend on the target's
/// pointer width.
impl Codec for usize {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        (*self as u64).encode_into(out);
    }
    #[inline]
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        usize::try_from(u64::decode_from(buf, pos)?).ok()
    }
}

impl Codec for f64 {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_bits().to_le_bytes());
    }
    #[inline]
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some(f64::from_bits(u64::decode_from(buf, pos)?))
    }
}

impl Codec for bool {
    #[inline]
    fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(*self as u8);
    }
    #[inline]
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let b = *buf.get(*pos)?;
        *pos += 1;
        match b {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

impl Codec for () {
    fn encode_into(&self, _out: &mut Vec<u8>) {}
    fn decode_from(_buf: &[u8], _pos: &mut usize) -> Option<Self> {
        Some(())
    }
}

/// A presence byte (a `bool`), then the value when there is one.
impl<T: Codec> Codec for Option<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.is_some().encode_into(out);
        if let Some(value) = self {
            value.encode_into(out);
        }
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        if bool::decode_from(buf, pos)? {
            Some(Some(T::decode_from(buf, pos)?))
        } else {
            Some(None)
        }
    }
}

/// A `u64` byte length, then the UTF-8 bytes.
impl Codec for String {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_into(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        String::from_utf8(Vec::decode_from(buf, pos)?).ok()
    }
}

/// A `u64` element count, then the elements.
impl<T: Codec> Codec for Vec<T> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_into(out);
        T::encode_slice(self, out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        let len = u64::decode_from(buf, pos)?;
        // Reject absurd lengths before looping (truncated-input safety).
        if len as usize > buf.len().saturating_sub(*pos).saturating_add(1) * 8 {
            return None;
        }
        T::decode_vec(buf, pos, len as usize)
    }
}

/// A shared sequence travels as a `Vec` does: a `u64` element count, then
/// the elements. Each decoded value owns its allocation.
impl<T: Codec> Codec for std::sync::Arc<[T]> {
    fn encode_into(&self, out: &mut Vec<u8>) {
        (self.len() as u64).encode_into(out);
        T::encode_slice(self, out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Vec::decode_from(buf, pos).map(Self::from)
    }
}

impl<A: Codec, B: Codec> Codec for (A, B) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((A::decode_from(buf, pos)?, B::decode_from(buf, pos)?))
    }
}

impl<A: Codec, B: Codec, C: Codec> Codec for (A, B, C) {
    fn encode_into(&self, out: &mut Vec<u8>) {
        self.0.encode_into(out);
        self.1.encode_into(out);
        self.2.encode_into(out);
    }
    fn decode_from(buf: &[u8], pos: &mut usize) -> Option<Self> {
        Some((
            A::decode_from(buf, pos)?,
            B::decode_from(buf, pos)?,
            C::decode_from(buf, pos)?,
        ))
    }
}

/// States a type's byte layout once and derives its [`Codec`] from it.
///
/// A struct's layout is its fields in wire order; type parameters are
/// bounded by `Codec`:
///
/// ```
/// # use graphalytics_codec::{layout, Codec};
/// struct Pair<T> { left: u32, right: T }
/// layout!(struct Pair<T> { left, right });
/// ```
///
/// A tagged enum's layout is one `tag => Variant` line per variant, with
/// the variant's fields in braces or parentheses. The encoding is the tag
/// byte, then the fields; the enum also gets `tag()`, and
/// `encode_payload`/`decode_payload` for a format that puts the tag
/// elsewhere (a frame header):
///
/// ```
/// # use graphalytics_codec::{layout, Codec};
/// enum Shape { Dot, Square(u32), Rect { w: u32, h: u32 } }
/// layout!(enum Shape { 0 => Dot, 1 => Square(side), 2 => Rect { w, h } });
/// assert_eq!(Shape::Rect { w: 2, h: 3 }.tag(), 2);
/// ```
///
/// Decoding builds the value with a struct or variant literal, so a field
/// missing from the list does not compile.
#[macro_export]
macro_rules! layout {
    (struct $name:ident $(<$($param:ident),+>)? { $($field:ident),* $(,)? }) => {
        impl$(<$($param: $crate::Codec),+>)? $crate::Codec for $name$(<$($param),+>)? {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                $($crate::Codec::encode_into(&self.$field, out);)*
            }
            fn decode_from(buf: &[u8], pos: &mut usize) -> ::std::option::Option<Self> {
                ::std::option::Option::Some(Self {
                    $($field: $crate::Codec::decode_from(buf, pos)?,)*
                })
            }
        }
    };
    (enum $name:ident {
        $($tag:literal => $variant:ident
            $({ $($field:ident),* $(,)? })?
            $(($($item:ident),+ $(,)?))?
        ),* $(,)?
    }) => {
        impl $name {
            /// The variant's tag (wire format; never reuse one).
            pub fn tag(&self) -> u8 {
                match self {
                    $($name::$variant { .. } => $tag,)*
                }
            }

            /// Appends the variant's fields, without the tag.
            // A fieldless enum never touches `out`, yet shares the signature.
            #[allow(clippy::ptr_arg)]
            pub fn encode_payload(&self, out: &mut ::std::vec::Vec<u8>) {
                match self {
                    $($name::$variant $({ $($field),* })? $(($($item),+))? => {
                        $($($crate::Codec::encode_into($field, out);)*)?
                        $($($crate::Codec::encode_into($item, out);)+)?
                    })*
                }
            }

            /// Decodes the fields of the variant tagged `tag`; `None` for
            /// an unknown tag or malformed fields.
            pub fn decode_payload(
                tag: u8,
                buf: &[u8],
                pos: &mut usize,
            ) -> ::std::option::Option<Self> {
                match tag {
                    $($tag => {
                        $($(let $field = $crate::Codec::decode_from(buf, pos)?;)*)?
                        $($(let $item = $crate::Codec::decode_from(buf, pos)?;)+)?
                        ::std::option::Option::Some(
                            $name::$variant $({ $($field),* })? $(($($item),+))?
                        )
                    })*
                    _ => ::std::option::Option::None,
                }
            }
        }

        impl $crate::Codec for $name {
            fn encode_into(&self, out: &mut ::std::vec::Vec<u8>) {
                out.push(self.tag());
                self.encode_payload(out);
            }
            fn decode_from(buf: &[u8], pos: &mut usize) -> ::std::option::Option<Self> {
                let tag = <u8 as $crate::Codec>::decode_from(buf, pos)?;
                Self::decode_payload(tag, buf, pos)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip<T: Codec + PartialEq + std::fmt::Debug + Clone>(x: T) {
        let mut buf = Vec::new();
        x.encode_into(&mut buf);
        let mut pos = 0;
        let back = T::decode_from(&buf, &mut pos).expect("decodes");
        assert_eq!(pos, buf.len());
        assert_eq!(back, x);
        // Re-encoding the decoded value is byte-identical.
        let mut buf2 = Vec::new();
        back.encode_into(&mut buf2);
        assert_eq!(buf, buf2);
    }

    fn encoded<T: Codec>(x: &T) -> Vec<u8> {
        let mut buf = Vec::new();
        x.encode_into(&mut buf);
        buf
    }

    #[test]
    fn primitives_round_trip() {
        roundtrip(0u32);
        roundtrip(u32::MAX);
        roundtrip(u64::MAX - 1);
        roundtrip(-42i64);
        roundtrip(3.25f64);
        roundtrip(-0.0f64);
        roundtrip(true);
        roundtrip(false);
        roundtrip(());
        roundtrip(vec![1u32, 2, 3]);
        roundtrip(Vec::<i64>::new());
        roundtrip(vec![vec![(1u32, 2.0f64, 3.0f64)], vec![]]);
        roundtrip((7u32, -1i64));
        roundtrip(0xABu8);
        roundtrip(usize::MAX);
        roundtrip(String::from("gx/ckpt ✓"));
        roundtrip(vec![0u8, 1, 255]);
        roundtrip(Some(9u64));
        roundtrip(None::<u64>);
        let shared: std::sync::Arc<[u32]> = vec![4u32, 5, 6].into();
        roundtrip(std::sync::Arc::clone(&shared));
        assert_eq!(encoded(&shared), encoded(&vec![4u32, 5, 6]));
    }

    #[test]
    fn f64_bit_patterns_survive() {
        let nan = f64::from_bits(0x7FF8_0000_0000_1234);
        let mut buf = Vec::new();
        nan.encode_into(&mut buf);
        let mut pos = 0;
        let back = f64::decode_from(&buf, &mut pos).unwrap();
        assert_eq!(back.to_bits(), nan.to_bits());
        assert_eq!((-0.0f64).to_bits(), {
            let mut b = Vec::new();
            (-0.0f64).encode_into(&mut b);
            let mut p = 0;
            f64::decode_from(&b, &mut p).unwrap().to_bits()
        });
    }

    #[test]
    fn truncated_and_malformed_inputs_fail_cleanly() {
        let mut pos = 0;
        assert!(u64::decode_from(&[1, 2, 3], &mut pos).is_none());
        let mut pos = 0;
        assert!(bool::decode_from(&[7], &mut pos).is_none());
        // A length prefix promising more data than exists.
        let mut buf = Vec::new();
        (u64::MAX).encode_into(&mut buf);
        let mut pos = 0;
        assert!(Vec::<u64>::decode_from(&buf, &mut pos).is_none());
        let mut pos = 0;
        assert!(Vec::<u8>::decode_from(&buf, &mut pos).is_none());
        // Bytes that are not UTF-8.
        let mut pos = 0;
        assert!(String::decode_from(&encoded(&vec![0xFFu8]), &mut pos).is_none());
    }

    #[test]
    fn an_oversized_count_is_rejected_before_reserving() {
        let mut buf = encoded(&(1u64 << 20));
        buf.extend_from_slice(&[0; 16]);
        let mut pos = 0;
        assert!(Vec::<(u32, f64, f64)>::decode_from(&buf, &mut pos).is_none());
    }

    /// The layouts that have a fixed spelling elsewhere: a string is a
    /// `u64` length and its bytes, a `usize` a `u64`, an option a presence
    /// byte and its value.
    #[test]
    fn string_usize_and_option_layouts_are_pinned() {
        assert_eq!(
            encoded(&String::from("ab")),
            [2, 0, 0, 0, 0, 0, 0, 0, b'a', b'b']
        );
        assert_eq!(encoded(&7usize), encoded(&7u64));
        assert_eq!(encoded(&vec![9u8, 8]), [2, 0, 0, 0, 0, 0, 0, 0, 9, 8]);
        assert_eq!(encoded(&Some(7u32)), [1, 7, 0, 0, 0]);
        assert_eq!(encoded(&None::<u32>), [0]);
        // A presence byte other than 0 or 1 is malformed.
        let mut pos = 0;
        assert!(Option::<u32>::decode_from(&[2, 7, 0, 0, 0], &mut pos).is_none());
    }

    #[derive(Debug, Clone, PartialEq)]
    struct Pair<T> {
        left: u32,
        right: T,
    }
    layout!(struct Pair<T> { left, right });

    #[derive(Debug, Clone, PartialEq)]
    enum Shape {
        Dot,
        Square(u32),
        Rect { w: u32, h: Vec<u8> },
    }
    layout!(enum Shape {
        3 => Dot,
        4 => Square(side),
        7 => Rect { w, h },
    });

    #[test]
    fn layouts_encode_their_fields_in_order() {
        roundtrip(Pair {
            left: 5,
            right: -2i64,
        });
        assert_eq!(
            encoded(&Pair {
                left: 1,
                right: true
            }),
            [1, 0, 0, 0, 1]
        );
        for shape in [
            Shape::Dot,
            Shape::Square(9),
            Shape::Rect { w: 2, h: vec![6] },
        ] {
            roundtrip(shape);
        }
        assert_eq!(Shape::Square(9).tag(), 4);
        assert_eq!(encoded(&Shape::Square(9)), [4, 9, 0, 0, 0]);
        let mut payload = Vec::new();
        Shape::Rect { w: 2, h: vec![6] }.encode_payload(&mut payload);
        assert_eq!(payload, [2, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 6]);
        let mut pos = 0;
        assert!(Shape::decode_payload(5, &payload, &mut pos).is_none());
        let mut pos = 0;
        assert!(Shape::decode_from(&[4, 9, 0], &mut pos).is_none());
    }
}

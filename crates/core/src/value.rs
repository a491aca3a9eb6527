//! [`Value`]: the size-aware RPC argument (paper §IV-B "Size-aware
//! transfer").
//!
//! Small arguments are passed **by value** (inline in the RPC message, like
//! any traditional RPC); large arguments are passed **by reference** as a
//! [`dmcommon::Ref`] into disaggregated memory. "DmRPC would automatically
//! choose the appropriate mode based on the parameter object size, while
//! users are not aware of the two different modes."

use bytes::Bytes;
use dmcommon::{DmError, DmResult, Ref};
use rpclib::Message;

/// An RPC argument: either inline bytes or a DM reference.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Value {
    /// Pass-by-value payload (small objects).
    Inline(Bytes),
    /// Pass-by-reference token (large objects live in DM).
    ByRef(Ref),
}

impl Value {
    /// Logical length of the argument in bytes.
    pub fn len(&self) -> u64 {
        match self {
            Value::Inline(b) => b.len() as u64,
            Value::ByRef(r) => r.len(),
        }
    }

    /// Whether the argument is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes this argument occupies on the wire when forwarded — the whole
    /// point of pass-by-reference is that this stays tiny for `ByRef`.
    pub fn wire_bytes(&self) -> usize {
        match self {
            Value::Inline(b) => 1 + b.len(),
            Value::ByRef(r) => 1 + r.wire_bytes(),
        }
    }

    /// Whether this is a reference.
    pub fn is_by_ref(&self) -> bool {
        matches!(self, Value::ByRef(_))
    }

    /// Encode for transport: a one-byte tag, then the inline bytes — attached
    /// as the message body, not copied behind the tag — or the encoded ref.
    pub fn encode(&self) -> Message {
        match self {
            Value::Inline(b) => Message::new(&[0u8][..], b.clone()),
            Value::ByRef(r) => Message::new(&[1u8][..], r.encode()),
        }
    }

    /// Decode from transport. An inline value is whatever follows the tag:
    /// the sender's own buffer when the message is split where
    /// [`Value::encode`] splits it, or not split at all.
    pub fn decode(m: &Message) -> DmResult<Value> {
        match m.get(0) {
            Some(0) => Ok(Value::Inline(m.skip(1).into_bytes())),
            Some(1) => Ok(Value::ByRef(Ref::decode(&m.skip(1).into_bytes())?)),
            _ => Err(DmError::Malformed),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcommon::DmServerId;

    #[test]
    fn inline_roundtrip() {
        let v = Value::Inline(Bytes::from_static(b"small payload"));
        let enc = v.encode();
        assert_eq!(Value::decode(&enc).unwrap(), v);
        assert_eq!(v.len(), 13);
        assert_eq!(v.wire_bytes(), 14);
        assert!(!v.is_by_ref());
    }

    #[test]
    fn byref_roundtrip_and_stays_small() {
        let v = Value::ByRef(Ref::Net {
            server: DmServerId(1),
            key: 7,
            len: 1 << 20,
        });
        let enc = v.encode();
        assert_eq!(Value::decode(&enc).unwrap(), v);
        assert_eq!(v.len(), 1 << 20);
        assert!(
            v.wire_bytes() < 32,
            "1 MiB argument forwards as a few bytes"
        );
        assert!(v.is_by_ref());
    }

    #[test]
    fn cxl_ref_roundtrip() {
        let v = Value::ByRef(Ref::Cxl {
            len: 8192,
            pages: vec![4, 9],
        });
        assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }

    #[test]
    fn decode_garbage_fails() {
        for garbage in [&[][..], &[9, 9], &[1, 200]] {
            assert!(Value::decode(&Bytes::from_static(garbage).into()).is_err());
        }
    }

    #[test]
    fn an_inline_value_crosses_encode_and_decode_uncopied() {
        let payload = Bytes::from(vec![5u8; 300]);
        let enc = Value::Inline(payload.clone()).encode();
        assert_eq!((enc.len(), enc.get(0)), (301, Some(0)));
        let Value::Inline(back) = Value::decode(&enc).unwrap() else {
            panic!("inline stays inline");
        };
        assert_eq!(back.as_ptr(), payload.as_ptr());
        // The same bytes in one buffer (a foreign sender) decode the same.
        let flat = Message::from(enc.into_bytes());
        assert_eq!(Value::decode(&flat).unwrap(), Value::Inline(payload));
    }

    #[test]
    fn empty_inline() {
        let v = Value::Inline(Bytes::new());
        assert!(v.is_empty());
        assert_eq!(Value::decode(&v.encode()).unwrap(), v);
    }
}

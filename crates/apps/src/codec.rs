//! Tiny application-level message codecs: an op byte in front of a
//! [`Value`], and lists of `Value`s (timeline reads return several posts).

use bytes::{BufMut, Bytes, BytesMut};
use dmcommon::{DmError, DmResult};
use dmrpc::Value;
use rpclib::Message;

/// Encode `[op][value]`: the op byte joins the value's tag in the head, an
/// inline value's bytes stay the body.
pub fn op_value(op: u8, v: &Value) -> Message {
    v.encode().prefixed(&[op])
}

/// Decode `[op][value]`.
pub fn parse_op_value(m: &Message) -> DmResult<(u8, Value)> {
    let op = m.get(0).ok_or(DmError::Malformed)?;
    Ok((op, Value::decode(&m.skip(1))?))
}

/// Decode `[id u64][value]`.
pub fn parse_id_value(m: &Message) -> DmResult<(u64, Value)> {
    let id = m.array(0).map(u64::from_le_bytes);
    let id = id.ok_or(DmError::Malformed)?;
    Ok((id, Value::decode(&m.skip(8))?))
}

/// Encode a list of values: `[count u16][len u32, value bytes]*`. A list is
/// one frame: every value is copied into it (timelines carry refs and small
/// posts; a payload to move travels as a value of its own).
pub fn encode_values(values: &[Value]) -> Bytes {
    let len = 2 + values.iter().map(|v| 4 + v.wire_bytes()).sum::<usize>();
    let mut out = BytesMut::with_capacity(len);
    out.put_u16_le(values.len() as u16);
    for v in values {
        let enc = v.encode();
        out.put_u32_le(enc.len() as u32);
        for part in enc.parts() {
            out.extend_from_slice(part);
        }
    }
    debug_assert_eq!(
        out.len(),
        len,
        "a value's wire_bytes is its encoding's length"
    );
    out.freeze()
}

/// Decode a list of values.
pub fn decode_values(b: &Bytes) -> DmResult<Vec<Value>> {
    if b.len() < 2 {
        return Err(DmError::Malformed);
    }
    let n = u16::from_le_bytes(b[0..2].try_into().expect("len ok")) as usize;
    let mut pos = 2usize;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        if b.len() < pos + 4 {
            return Err(DmError::Malformed);
        }
        let l = u32::from_le_bytes(b[pos..pos + 4].try_into().expect("len ok")) as usize;
        pos += 4;
        if b.len() < pos + l {
            return Err(DmError::Malformed);
        }
        out.push(Value::decode(&b.slice(pos..pos + l).into())?);
        pos += l;
    }
    Ok(out)
}

/// Encode a u64 as an inline result value.
pub fn u64_value(v: u64) -> Value {
    Value::Inline(Bytes::from(v.to_le_bytes().to_vec()))
}

/// Decode a u64 from an inline value.
pub fn value_u64(v: &Value) -> DmResult<u64> {
    match v {
        Value::Inline(b) if b.len() >= 8 => {
            Ok(u64::from_le_bytes(b[..8].try_into().expect("len ok")))
        }
        _ => Err(DmError::Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dmcommon::{DmServerId, Ref};

    #[test]
    fn op_value_roundtrip() {
        let v = Value::Inline(Bytes::from_static(b"payload"));
        let enc = op_value(9, &v);
        assert_eq!(enc, b"\x09\x00payload"[..]);
        assert_eq!(parse_op_value(&enc).unwrap(), (9, v.clone()));
        let enc = v.encode().prefixed(&0x0102u64.to_le_bytes());
        assert_eq!(
            enc.body.as_ptr(),
            b"payload".as_ptr(),
            "attached, not copied"
        );
        assert_eq!(parse_id_value(&enc).unwrap(), (0x0102, v));
        for short in [&b""[..], b"\x01\x02\x03"] {
            let short = Message::from(Bytes::from_static(short));
            assert!(parse_id_value(&short).is_err());
        }
        assert!(parse_op_value(&Message::default()).is_err());
    }

    #[test]
    fn value_list_roundtrip() {
        let vs = vec![
            Value::Inline(Bytes::from_static(b"a")),
            Value::ByRef(Ref::Net {
                server: DmServerId(0),
                key: 5,
                len: 4096,
            }),
            Value::Inline(Bytes::new()),
        ];
        let enc = encode_values(&vs);
        assert_eq!(decode_values(&enc).unwrap(), vs);
        assert_eq!(decode_values(&encode_values(&[])).unwrap(), vec![]);
    }

    #[test]
    fn u64_value_roundtrip() {
        assert_eq!(value_u64(&u64_value(0xFEED_BEEF)).unwrap(), 0xFEED_BEEF);
        assert!(value_u64(&Value::Inline(Bytes::from_static(b"xx"))).is_err());
    }

    #[test]
    fn malformed_lists_rejected() {
        assert!(decode_values(&Bytes::from_static(&[1])).is_err());
        assert!(decode_values(&Bytes::from_static(&[2, 0, 1, 0, 0, 0])).is_err());
    }
}

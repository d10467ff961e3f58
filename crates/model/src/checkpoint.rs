//! Binary checkpointing of parameters.
//!
//! Saves and restores every parameter of a [`Module`] by name in a simple
//! length-prefixed binary format. Used to cache pre-trained micro models
//! between harness runs and to ship expert weights between processes.
//!
//! The format is intentionally minimal (this workspace is its only
//! producer and consumer):
//!
//! ```text
//! magic "VELA" | u32 version | u32 param_count |
//!   per param: u32 name_len | name bytes | u32 value_len | f32 values...
//! ```
//!
//! It is the only encoding: every expert that crosses between processes —
//! seeded, streamed or cut over — crosses as these exact f32 bytes.

use std::io::{self, Read, Write};

use vela_nn::param::{Module, Param};

const MAGIC: &[u8; 4] = b"VELA";
const VERSION: u32 = 1;

/// Serializes every parameter of `module` into `writer`.
///
/// # Errors
/// Returns any I/O error from the writer.
pub fn save(module: &mut dyn Module, writer: &mut dyn Write) -> io::Result<()> {
    save_where(module, writer, &|_| true)
}

/// Serializes only the parameters that are trainable (`trainable: true`)
/// or only the frozen ones (`false`), as a blob [`load`] accepts like any
/// other: it leaves the parameters a blob lacks untouched, so loading the
/// two halves in either order restores the module. Expert migration ships
/// the frozen half while the expert keeps training and the trainable half
/// at the cutover.
///
/// # Errors
/// Returns any I/O error from the writer.
pub fn save_part(
    module: &mut dyn Module,
    writer: &mut dyn Write,
    trainable: bool,
) -> io::Result<()> {
    save_where(module, writer, &|p| p.is_trainable() == trainable)
}

fn save_where(
    module: &mut dyn Module,
    writer: &mut dyn Write,
    keep: &dyn Fn(&Param) -> bool,
) -> io::Result<()> {
    let mut count: u32 = 0;
    module.visit_params(&mut |p| count += u32::from(keep(p)));
    writer.write_all(MAGIC)?;
    writer.write_all(&VERSION.to_le_bytes())?;
    writer.write_all(&count.to_le_bytes())?;
    // Stream each parameter straight out of the module — no cloned value
    // vectors, and each tensor goes through the writer as one bulk write
    // instead of a virtual call per element (expert migration serializes
    // megabytes through this path on the step critical path).
    let mut result = Ok(());
    module.visit_params(&mut |p| {
        if result.is_err() || !keep(p) {
            return;
        }
        let name = p.name();
        let values = p.value.as_slice();
        result = (|| {
            writer.write_all(&(name.len() as u32).to_le_bytes())?;
            writer.write_all(name.as_bytes())?;
            writer.write_all(&(values.len() as u32).to_le_bytes())?;
            writer.write_all(&f32s_to_le_bytes(values))
        })();
    });
    result
}

/// Bulk-encodes an `f32` slice into its little-endian byte image — one
/// allocation and a vectorizable copy loop, replacing per-element writes.
fn f32s_to_le_bytes(values: &[f32]) -> Vec<u8> {
    let mut out = vec![0u8; values.len() * 4];
    for (chunk, v) in out.chunks_exact_mut(4).zip(values) {
        chunk.copy_from_slice(&v.to_le_bytes());
    }
    out
}

/// Bulk-decodes a little-endian byte image back into `f32`s — the exact
/// inverse of [`f32s_to_le_bytes`], bit for bit.
fn le_bytes_to_f32s(bytes: &[u8]) -> Vec<f32> {
    bytes
        .chunks_exact(4)
        .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunk")))
        .collect()
}

/// Restores parameters into `module` from `reader`.
///
/// Every checkpoint parameter must exist in the module with a matching
/// element count; module parameters missing from the checkpoint are left
/// untouched (so a backbone checkpoint can be loaded into a model that has
/// since gained LoRA adapters).
///
/// # Errors
/// Returns an error on malformed input, unknown parameters, or shape
/// mismatches.
pub fn load(module: &mut dyn Module, reader: &mut dyn Read) -> io::Result<()> {
    let mut magic = [0u8; 4];
    reader.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(bad("not a VELA checkpoint"));
    }
    apply_entries(module, read_entries(reader)?)
}

/// Reads the body (everything after the magic) into name → f32-values
/// entries.
fn read_entries(reader: &mut dyn Read) -> io::Result<std::collections::HashMap<String, Vec<f32>>> {
    let version = read_u32(reader)?;
    if version != VERSION {
        return Err(bad(&format!("unsupported checkpoint version {version}")));
    }
    let count = read_u32(reader)? as usize;
    let mut entries: std::collections::HashMap<String, Vec<f32>> =
        std::collections::HashMap::with_capacity(count);
    for _ in 0..count {
        let name_len = read_u32(reader)? as usize;
        if name_len > 4096 {
            return Err(bad("parameter name too long"));
        }
        let mut name = vec![0u8; name_len];
        reader.read_exact(&mut name)?;
        let name = String::from_utf8(name).map_err(|_| bad("non-UTF8 parameter name"))?;
        let value_len = read_u32(reader)? as usize;
        // One bulk read per tensor, then a vectorizable conversion — the
        // element-at-a-time loop this replaces paid a virtual `read_exact`
        // per value.
        let mut raw = vec![0u8; value_len * 4];
        reader.read_exact(&mut raw)?;
        entries.insert(name, le_bytes_to_f32s(&raw));
    }
    Ok(entries)
}

/// Applies decoded checkpoint entries to `module` — the matching rules of
/// [`load`].
fn apply_entries(
    module: &mut dyn Module,
    mut entries: std::collections::HashMap<String, Vec<f32>>,
) -> io::Result<()> {
    let mut error: Option<io::Error> = None;
    module.visit_params(&mut |p| {
        if error.is_some() {
            return;
        }
        if let Some(values) = entries.remove(p.name()) {
            if values.len() != p.value.len() {
                error = Some(bad(&format!(
                    "shape mismatch for {}: checkpoint {} vs model {}",
                    p.name(),
                    values.len(),
                    p.value.len()
                )));
                return;
            }
            p.value.as_mut_slice().copy_from_slice(&values);
        }
    });
    if let Some(e) = error {
        return Err(e);
    }
    if let Some(name) = entries.keys().next() {
        return Err(bad(&format!("checkpoint parameter {name} not in model")));
    }
    Ok(())
}

/// Saves to a file path.
///
/// # Errors
/// Propagates file-system and serialization errors.
pub fn save_to_path(module: &mut dyn Module, path: &std::path::Path) -> io::Result<()> {
    let mut file = io::BufWriter::new(std::fs::File::create(path)?);
    save(module, &mut file)
}

/// Loads from a file path.
///
/// # Errors
/// Propagates file-system and deserialization errors.
pub fn load_from_path(module: &mut dyn Module, path: &std::path::Path) -> io::Result<()> {
    let mut file = io::BufReader::new(std::fs::File::open(path)?);
    load(module, &mut file)
}

fn bad(msg: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg)
}

fn read_u32(reader: &mut dyn Read) -> io::Result<u32> {
    let mut buf = [0u8; 4];
    reader.read_exact(&mut buf)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LocalExpertStore, ModelConfig, MoeModel};
    use vela_tensor::rng::DetRng;

    fn fingerprint(m: &mut dyn Module) -> Vec<(String, f32)> {
        let mut out = Vec::new();
        m.visit_params(&mut |p| out.push((p.name().to_string(), p.value.sum())));
        out
    }

    #[test]
    fn roundtrip_restores_exact_weights() {
        let cfg = ModelConfig::test_small();
        let (mut model, _) = MoeModel::new(&cfg, &mut DetRng::new(1));
        let before = fingerprint(&mut model);

        let mut buf = Vec::new();
        save(&mut model, &mut buf).unwrap();

        // Different init, then restore.
        let (mut other, _) = MoeModel::new(&cfg, &mut DetRng::new(2));
        assert_ne!(fingerprint(&mut other), before);
        load(&mut other, &mut buf.as_slice()).unwrap();
        assert_eq!(fingerprint(&mut other), before);
    }

    #[test]
    fn expert_store_roundtrip() {
        let cfg = ModelConfig::test_small();
        let mut store = LocalExpertStore::new(&cfg, &mut DetRng::new(3));
        let before = fingerprint(&mut store);
        let mut buf = Vec::new();
        save(&mut store, &mut buf).unwrap();
        let mut other = LocalExpertStore::new(&cfg, &mut DetRng::new(4));
        load(&mut other, &mut buf.as_slice()).unwrap();
        assert_eq!(fingerprint(&mut other), before);
    }

    #[test]
    fn partial_checkpoint_leaves_extras_untouched() {
        // Save a bare model, then load into a LoRA-augmented one.
        let cfg = ModelConfig::test_small();
        let (mut bare, _) = MoeModel::new(&cfg, &mut DetRng::new(5));
        let mut buf = Vec::new();
        save(&mut bare, &mut buf).unwrap();

        let (mut lora, _) = MoeModel::new(&cfg, &mut DetRng::new(6));
        lora.freeze_all();
        lora.attach_lora(2, 4.0, &mut DetRng::new(7));
        load(&mut lora, &mut buf.as_slice()).unwrap();
        // Backbone weights match the checkpoint; adapters still present.
        let mut has_lora = false;
        lora.visit_params(&mut |p| has_lora |= p.name().contains("lora"));
        assert!(has_lora);
    }

    #[test]
    fn unknown_checkpoint_param_is_an_error() {
        let cfg = ModelConfig::test_small();
        let (mut big, _) = MoeModel::new(&cfg, &mut DetRng::new(8));
        let mut buf = Vec::new();
        save(&mut big, &mut buf).unwrap();

        let mut small = ModelConfig::test_small();
        small.blocks = 1;
        let (mut target, _) = MoeModel::new(&small, &mut DetRng::new(9));
        let err = load(&mut target, &mut buf.as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn the_two_parts_restore_an_expert_in_either_order() {
        use vela_nn::swiglu::SwiGlu;
        let lora_expert = |seed| {
            let mut rng = DetRng::new(seed);
            let mut ffn = SwiGlu::new("block0.expert0", 8, 16, &mut rng);
            ffn.freeze_base();
            ffn.attach_lora(2, 4.0, &mut rng);
            ffn
        };
        let mut source = lora_expert(1);
        let (mut whole, mut frozen, mut trained) = (Vec::new(), Vec::new(), Vec::new());
        save(&mut source, &mut whole).unwrap();
        save_part(&mut source, &mut frozen, false).unwrap();
        save_part(&mut source, &mut trained, true).unwrap();
        // Same entries, split over two headers (magic, version, count).
        assert_eq!(frozen.len() + trained.len(), whole.len() + 12);
        assert!(frozen.len() > trained.len(), "LoRA trains the small part");

        for order in [[&frozen, &trained], [&trained, &frozen]] {
            let mut copy = lora_expert(2);
            load(&mut copy, &mut order[0].as_slice()).unwrap();
            assert_ne!(fingerprint(&mut copy), fingerprint(&mut source));
            load(&mut copy, &mut order[1].as_slice()).unwrap();
            assert_eq!(fingerprint(&mut copy), fingerprint(&mut source));
        }

        // With nothing frozen the frozen part is a header and no entries.
        let mut dense = SwiGlu::new("block0.expert1", 8, 16, &mut DetRng::new(3));
        let mut empty = Vec::new();
        save_part(&mut dense, &mut empty, false).unwrap();
        assert_eq!(empty.len(), 12);
        load(&mut dense, &mut empty.as_slice()).unwrap();
    }

    #[test]
    fn truncated_stream_is_an_error() {
        let cfg = ModelConfig::test_small();
        let (mut model, _) = MoeModel::new(&cfg, &mut DetRng::new(10));
        let mut buf = Vec::new();
        save(&mut model, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        assert!(load(&mut model, &mut buf.as_slice()).is_err());
    }

    #[test]
    fn wrong_magic_is_an_error() {
        let cfg = ModelConfig::test_small();
        let (mut model, _) = MoeModel::new(&cfg, &mut DetRng::new(11));
        let err = load(&mut model, &mut b"NOPE....".as_slice()).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn file_roundtrip() {
        let cfg = ModelConfig::test_small();
        let (mut model, _) = MoeModel::new(&cfg, &mut DetRng::new(12));
        let before = fingerprint(&mut model);
        let dir = std::env::temp_dir().join("vela-ckpt-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("model.vela");
        save_to_path(&mut model, &path).unwrap();
        let (mut other, _) = MoeModel::new(&cfg, &mut DetRng::new(13));
        load_from_path(&mut other, &path).unwrap();
        assert_eq!(fingerprint(&mut other), before);
        std::fs::remove_file(&path).ok();
    }
}

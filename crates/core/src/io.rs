//! Model persistence.
//!
//! Trained models serialize to a small self-describing text format (exact
//! `f32` round-trip via bit patterns) so a model trained once can score new
//! source batches later — the deployment pattern of the incremental
//! scenario. No external serialization crates are needed.

use crate::config::AdamelConfig;
use crate::model::AdamelModel;
use adamel_schema::{FeatureMode, Schema};
use adamel_tensor::Matrix;
use std::io::{self, BufRead, Write};

const MAGIC: &str = "adamel-model v1";

/// Trailing config token of a uniform-attention ablation model. A learned
/// model writes none, so its file stays readable by builds that predate it.
const UNIFORM_TAG: &str = "uniform";

fn mode_tag(mode: FeatureMode) -> &'static str {
    match mode {
        FeatureMode::SharedOnly => "shared",
        FeatureMode::UniqueOnly => "unique",
        FeatureMode::Both => "both",
    }
}

fn mode_from_tag(tag: &str) -> io::Result<FeatureMode> {
    match tag {
        "shared" => Ok(FeatureMode::SharedOnly),
        "unique" => Ok(FeatureMode::UniqueOnly),
        "both" => Ok(FeatureMode::Both),
        other => Err(bad(format!("unknown feature mode {other}"))),
    }
}

fn bad(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Writes a trained model.
pub fn save_model(model: &AdamelModel, w: &mut impl Write) -> io::Result<()> {
    let cfg = model.config();
    writeln!(w, "{MAGIC}")?;
    write!(
        w,
        "config {} {} {} {} {} {} {} {} {} {} {} {}",
        cfg.embed_dim,
        cfg.feature_dim,
        cfg.attention_dim,
        cfg.hidden_dim,
        cfg.crop,
        cfg.learning_rate,
        cfg.epochs,
        cfg.batch_size,
        cfg.lambda,
        cfg.phi,
        mode_tag(cfg.feature_mode),
        cfg.seed,
    )?;
    if cfg.uniform_attention {
        write!(w, " {UNIFORM_TAG}")?;
    }
    writeln!(w)?;
    let attrs = model.extractor().schema().attributes();
    writeln!(w, "schema {}", attrs.join(" "))?;
    let snapshot = model.snapshot_params();
    writeln!(w, "params {}", snapshot.len())?;
    for m in &snapshot {
        write!(w, "tensor {} {}", m.rows(), m.cols())?;
        for v in m.as_slice() {
            write!(w, " {:08x}", v.to_bits())?;
        }
        writeln!(w)?;
    }
    Ok(())
}

/// Reads a model written by [`save_model`].
pub fn load_model(r: &mut impl BufRead) -> io::Result<AdamelModel> {
    let mut lines = r.lines();
    let mut next = || lines.next().unwrap_or_else(|| Err(bad("unexpected end of model file")));

    if next()? != MAGIC {
        return Err(bad("not an adamel model file"));
    }
    let config_line = next()?;
    let parts: Vec<&str> = config_line.split_whitespace().collect();
    let uniform_attention = parts.get(13) == Some(&UNIFORM_TAG);
    if parts.len() != 13 + usize::from(uniform_attention) || parts.first() != Some(&"config") {
        return Err(bad("malformed config line"));
    }
    let field = |i: usize| parts.get(i).copied().ok_or_else(|| bad("malformed config line"));
    let p = |i: usize| -> io::Result<usize> { field(i)?.parse().map_err(|_| bad("bad integer")) };
    // A zero width would panic while the model is built, not fail the load.
    let dim = |i: usize| p(i).and_then(|d| if d == 0 { Err(bad("zero dimension")) } else { Ok(d) });
    let pf = |i: usize| -> io::Result<f32> { field(i)?.parse().map_err(|_| bad("bad float")) };
    let cfg = AdamelConfig {
        embed_dim: dim(1)?,
        feature_dim: dim(2)?,
        attention_dim: dim(3)?,
        hidden_dim: dim(4)?,
        crop: p(5)?,
        learning_rate: pf(6)?,
        epochs: p(7)?,
        batch_size: p(8)?,
        lambda: pf(9)?,
        phi: pf(10)?,
        feature_mode: mode_from_tag(field(11)?)?,
        seed: field(12)?.parse().map_err(|_| bad("bad seed"))?,
        grad_clip: Some(5.0),
        uniform_attention,
    };

    let schema_line = next()?;
    let attrs: Vec<String> = schema_line
        .strip_prefix("schema ")
        .ok_or_else(|| bad("malformed schema line"))?
        .split_whitespace()
        .map(str::to_owned)
        .collect();
    if attrs.is_empty() {
        return Err(bad("empty schema"));
    }
    let schema = Schema::new(attrs);

    let params_line = next()?;
    let count: usize = params_line
        .strip_prefix("params ")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| bad("malformed params line"))?;

    let mut tensors = Vec::with_capacity(count);
    for _ in 0..count {
        let line = next()?;
        let mut it = line.split_whitespace();
        if it.next() != Some("tensor") {
            return Err(bad("malformed tensor line"));
        }
        let rows: usize = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| bad("bad rows"))?;
        let cols: usize = it.next().and_then(|v| v.parse().ok()).ok_or_else(|| bad("bad cols"))?;
        let mut data = Vec::with_capacity(rows * cols);
        for tok in it {
            let bits = u32::from_str_radix(tok, 16).map_err(|_| bad("bad value"))?;
            data.push(f32::from_bits(bits));
        }
        if data.len() != rows * cols {
            return Err(bad(format!("tensor expected {} values, got {}", rows * cols, data.len())));
        }
        tensors.push(Matrix::from_vec(rows, cols, data));
    }

    let mut model = AdamelModel::new(cfg, schema);
    model.restore_params(&tensors).map_err(|e| bad(format!("parameter restore failed: {e}")))?;
    Ok(model)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Variant;
    use crate::train::fit;
    use adamel_schema::{Domain, EntityPair, Record, SourceId};
    use std::io::BufReader;

    fn trained_model(cfg: AdamelConfig) -> (AdamelModel, Vec<EntityPair>) {
        let schema = Schema::new(vec!["name".into()]);
        let mut model = AdamelModel::new(cfg, schema);
        let mut train = Vec::new();
        for i in 0..6u64 {
            let mut a = Record::new(SourceId(0), i);
            a.set("name", format!("item {i} alpha"));
            let mut b = Record::new(SourceId(1), i);
            b.set("name", format!("item {i} alpha"));
            train.push(EntityPair::labeled(a.clone(), b, true));
            let mut c = Record::new(SourceId(1), i + 40);
            c.set("name", format!("other {} beta", i + 9));
            train.push(EntityPair::labeled(a, c, false));
        }
        fit(&mut model, Variant::Base, &Domain::new(train.clone()), None, None);
        (model, train)
    }

    #[test]
    fn save_load_round_trip_is_exact() {
        let (model, pairs) = trained_model(AdamelConfig::tiny());
        let mut buf = Vec::new();
        save_model(&model, &mut buf).expect("save to Vec cannot fail");
        let restored = load_model(&mut BufReader::new(&buf[..])).expect("round trip should load");
        assert_eq!(model.predict(&pairs), restored.predict(&pairs));
        assert_eq!(model.num_parameters(), restored.num_parameters());
        assert_eq!(
            model.extractor().schema().attributes(),
            restored.extractor().schema().attributes()
        );
    }

    #[test]
    fn rejects_garbage() {
        let data = b"not a model\n";
        assert!(load_model(&mut BufReader::new(&data[..])).is_err());
    }

    #[test]
    fn rejects_truncated_file() {
        let (model, _) = trained_model(AdamelConfig::tiny());
        let mut buf = Vec::new();
        save_model(&model, &mut buf).expect("save to Vec cannot fail");
        let truncated = &buf[..buf.len() / 2];
        assert!(load_model(&mut BufReader::new(truncated)).is_err());
    }

    fn saved(model: &AdamelModel) -> String {
        let mut buf = Vec::new();
        save_model(model, &mut buf).expect("save to Vec cannot fail");
        String::from_utf8(buf).expect("model files are text")
    }

    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn uniform_attention_survives_round_trip() {
        let (model, pairs) = trained_model(AdamelConfig::tiny().with_uniform_attention(true));
        let text = saved(&model);
        let restored = load_model(&mut text.as_bytes()).expect("round trip should load");
        assert!(restored.config().uniform_attention);
        let (want, got) = (model.score(pairs.clone()), restored.score(pairs.clone()));
        assert_eq!(bits(want.scores()), bits(got.scores()));
        assert_eq!(bits(want.attention().as_slice()), bits(got.attention().as_slice()));

        // Without the trailing token the line has 13 tokens: learned attention.
        let learned = text.replacen(" uniform\n", "\n", 1);
        assert_eq!(learned.lines().nth(1).map(|l| l.split_whitespace().count()), Some(13));
        let restored = load_model(&mut learned.as_bytes()).expect("13-token config loads");
        assert!(!restored.config().uniform_attention);
        assert_ne!(bits(restored.attention(&pairs).as_slice()), bits(want.attention().as_slice()));
    }

    #[test]
    fn rejects_zero_dimensions() {
        let (model, _) = trained_model(AdamelConfig::tiny());
        let text = saved(&model);
        let mut lines: Vec<String> = text.lines().map(str::to_owned).collect();
        let config = lines[1].clone();
        // embed_dim, feature_dim, attention_dim and hidden_dim, in turn.
        for field in 1..=4 {
            let mut tokens: Vec<&str> = config.split_whitespace().collect();
            tokens[field] = "0";
            lines[1] = tokens.join(" ");
            let Err(e) = load_model(&mut lines.join("\n").as_bytes()) else {
                panic!("config field {field} = 0 loaded");
            };
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "field {field}");
        }
    }
}

//! The served configuration: the paper's trained iris and mushroom
//! networks, quantized into the formats the workloads rotate through,
//! with the reference answers every served response is checked against.

use deep_positron::experiments::paper_tasks;
use deep_positron::{NumericFormat, QuantizedMlp};
use dp_fixed::FixedFormat;
use dp_minifloat::FloatFormat;
use dp_posit::PositFormat;

/// One model quantized into one format.
pub struct Variant {
    /// Short metric label, e.g. `posit8e0`.
    pub label: &'static str,
    /// Wire format descriptor, e.g. `posit<8,0>`.
    pub format: String,
    pub model: QuantizedMlp,
}

/// A trained task served under one model name in several formats.
pub struct ModelSet {
    /// Registry and wire model name, also the metric prefix.
    pub name: &'static str,
    /// The test split: the inputs requests carry.
    pub inputs: Vec<Vec<f32>>,
    pub variants: Vec<Variant>,
}

/// Reference answers for one variant: per sample through
/// `QuantizedMlp::forward_bits_with` and `infer_with` with fresh EMACs,
/// as `forward_bits` and `infer` compute them.
pub struct Reference {
    /// Output bit patterns per input.
    pub bits: Vec<Vec<u32>>,
    /// Predicted class per input.
    pub classes: Vec<usize>,
}

pub struct Served {
    pub iris: ModelSet,
    pub mushroom: ModelSet,
}

fn posit(n: u32, es: u32) -> NumericFormat {
    NumericFormat::Posit(PositFormat::new(n, es).expect("valid posit format"))
}

fn float(we: u32, wf: u32) -> NumericFormat {
    NumericFormat::Float(FloatFormat::new(we, wf).expect("valid float format"))
}

fn fixed(n: u32, q: u32) -> NumericFormat {
    NumericFormat::Fixed(FixedFormat::new(n, q).expect("valid fixed format"))
}

impl Served {
    /// Trains the paper's tasks on the quick schedule (the seed drives the
    /// dataset split and the initial weights) and quantizes the served
    /// variants: iris 4-16-3 in three 8-bit formats, mushroom 117-24-2 in
    /// the same three plus `posit<16,1>`, which keeps the 16-bit kernel
    /// paths on the served mix.
    pub fn train(seed: u64) -> Served {
        let tasks = paper_tasks(true, seed);
        let task = |name: &str| {
            tasks
                .iter()
                .find(|t| t.name == name)
                .expect("paper_tasks trains every paper dataset")
        };
        let set =
            |name: &'static str, task_name: &str, formats: &[(&'static str, NumericFormat)]| {
                let t = task(task_name);
                ModelSet {
                    name,
                    inputs: t.split.test.features.clone(),
                    variants: formats
                        .iter()
                        .map(|&(label, fmt)| Variant {
                            label,
                            format: fmt.to_string(),
                            model: QuantizedMlp::quantize(&t.mlp, fmt),
                        })
                        .collect(),
                }
            };
        let eight_bit = [
            ("posit8e0", posit(8, 0)),
            ("float8e4m3", float(4, 3)),
            ("fixed8q6", fixed(8, 6)),
        ];
        let mut mushroom_formats = eight_bit.to_vec();
        mushroom_formats.push(("posit16e1", posit(16, 1)));
        Served {
            iris: set("iris", "Iris", &eight_bit),
            mushroom: set("mushroom", "Mushroom", &mushroom_formats),
        }
    }

    pub fn sets(&self) -> [&ModelSet; 2] {
        [&self.iris, &self.mushroom]
    }
}

impl Variant {
    /// The reference answers for `inputs`, or an error if the tile datapath
    /// (`forward_batch_bits_with`, in chunks of `chunk`) disagrees with the
    /// per-sample one: the server runs one of the two, so a defect in
    /// either shows as a failed run.
    pub fn reference(&self, inputs: &[Vec<f32>], chunk: usize) -> Result<Reference, String> {
        let new_emacs = || {
            self.model
                .make_layer_emacs()
                .expect("served formats have an EMAC datapath")
        };
        let mut emacs = new_emacs();
        let bits: Vec<Vec<u32>> = inputs
            .iter()
            .map(|x| self.model.forward_bits_with(&mut emacs, x))
            .collect();
        let classes = inputs
            .iter()
            .map(|x| self.model.infer_with(&mut emacs, x))
            .collect();
        let mut emacs = new_emacs();
        let tiled: Vec<Vec<u32>> = inputs
            .chunks(chunk)
            .flat_map(|c| self.model.forward_batch_bits_with(&mut emacs, c))
            .collect();
        if tiled != bits {
            return Err(format!(
                "{}: the tile and per-sample datapaths disagree",
                self.format
            ));
        }
        Ok(Reference { bits, classes })
    }
}

/// Reference answers for every variant of both model sets, indexed like
/// `Served::sets()[m].variants[v]`.
pub fn references(served: &Served, chunk: usize) -> Result<[Vec<Reference>; 2], String> {
    let [iris, mushroom] = served.sets().map(|set| {
        set.variants
            .iter()
            .map(|v| v.reference(&set.inputs, chunk))
            .collect::<Result<Vec<_>, _>>()
    });
    Ok([iris?, mushroom?])
}

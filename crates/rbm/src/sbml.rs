//! SBML-subset import/export.
//!
//! Mainstream Systems Biology tools exchange models as SBML; the GPU
//! simulator family natively uses the BioSimWare directory layout. This
//! module provides the conversion tool shipped alongside the original
//! simulator: a reader for the *mass-action subset* of SBML (species with
//! initial concentrations, reactions with reactant/product
//! `speciesReference`s, and a kinetic constant taken from the first
//! `localParameter`/`parameter` of each reaction's `kineticLaw`) and a
//! matching writer.
//!
//! The XML handling is a small built-in scanner — elements, attributes,
//! comments, CDATA — sufficient for machine-produced SBML files; it is not
//! a general-purpose XML parser.
//!
//! # Example
//!
//! ```
//! # fn main() -> Result<(), paraspace_rbm::RbmError> {
//! let doc = r#"<?xml version="1.0"?>
//! <sbml><model id="decay">
//!   <listOfSpecies>
//!     <species id="A" initialConcentration="2.0"/>
//!   </listOfSpecies>
//!   <listOfReactions>
//!     <reaction id="r1">
//!       <listOfReactants><speciesReference species="A"/></listOfReactants>
//!       <kineticLaw><listOfLocalParameters>
//!         <localParameter id="k1" value="0.25"/>
//!       </listOfLocalParameters></kineticLaw>
//!     </reaction>
//!   </listOfReactions>
//! </model></sbml>"#;
//! let model = paraspace_rbm::sbml::from_str(doc)?;
//! assert_eq!(model.n_species(), 1);
//! assert_eq!(model.rate_constants(), vec![0.25]);
//! # Ok(())
//! # }
//! ```

use crate::{RbmError, Reaction, ReactionBasedModel, SpeciesId};
use std::collections::HashMap;

/// A scanned XML element event.
#[derive(Debug, Clone, PartialEq)]
enum Event {
    Open { name: String, attrs: HashMap<String, String>, self_closing: bool },
    Close { name: String },
}

fn parse_err(context: &str, message: impl Into<String>) -> RbmError {
    RbmError::Parse { context: context.to_string(), message: message.into() }
}

/// Scans `doc` into a flat element-event stream, skipping text content,
/// comments, processing instructions, DOCTYPE, and CDATA.
fn scan(doc: &str) -> Result<Vec<Event>, RbmError> {
    let bytes = doc.as_bytes();
    let mut events = Vec::new();
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] != b'<' {
            i += 1;
            continue;
        }
        if doc[i..].starts_with("<!--") {
            match doc[i..].find("-->") {
                Some(end) => i += end + 3,
                None => return Err(parse_err("sbml", "unterminated comment")),
            }
            continue;
        }
        if doc[i..].starts_with("<![CDATA[") {
            match doc[i..].find("]]>") {
                Some(end) => i += end + 3,
                None => return Err(parse_err("sbml", "unterminated CDATA section")),
            }
            continue;
        }
        if doc[i..].starts_with("<?") || doc[i..].starts_with("<!") {
            match doc[i..].find('>') {
                Some(end) => i += end + 1,
                None => return Err(parse_err("sbml", "unterminated declaration")),
            }
            continue;
        }
        let end = doc[i..].find('>').ok_or_else(|| parse_err("sbml", "unterminated tag"))?;
        let inner = &doc[i + 1..i + end];
        i += end + 1;
        if let Some(name) = inner.strip_prefix('/') {
            events.push(Event::Close { name: local_name(name.trim()).to_string() });
            continue;
        }
        let self_closing = inner.ends_with('/');
        let inner = inner.strip_suffix('/').unwrap_or(inner).trim();
        let (name, rest) = match inner.find(char::is_whitespace) {
            Some(p) => (&inner[..p], &inner[p..]),
            None => (inner, ""),
        };
        let attrs = parse_attrs(rest)?;
        events.push(Event::Open { name: local_name(name).to_string(), attrs, self_closing });
    }
    Ok(events)
}

/// Strips a namespace prefix (`sbml:species` → `species`).
fn local_name(name: &str) -> &str {
    name.rsplit(':').next().unwrap_or(name)
}

fn parse_attrs(mut s: &str) -> Result<HashMap<String, String>, RbmError> {
    let mut attrs = HashMap::new();
    loop {
        s = s.trim_start();
        if s.is_empty() {
            return Ok(attrs);
        }
        let eq = s
            .find('=')
            .ok_or_else(|| parse_err("sbml", format!("attribute without value near {s:?}")))?;
        let key = local_name(s[..eq].trim()).to_string();
        s = s[eq + 1..].trim_start();
        let quote = s
            .chars()
            .next()
            .filter(|&c| c == '"' || c == '\'')
            .ok_or_else(|| parse_err("sbml", "attribute value must be quoted"))?;
        let rest = &s[1..];
        let close =
            rest.find(quote).ok_or_else(|| parse_err("sbml", "unterminated attribute value"))?;
        attrs.insert(key, rest[..close].to_string());
        s = &rest[close + 1..];
    }
}

#[derive(Debug, Default)]
struct PendingReaction {
    reactants: Vec<(String, u32)>,
    products: Vec<(String, u32)>,
    rate: Option<f64>,
    id: String,
}

/// Parses the mass-action SBML subset from a string.
///
/// # Errors
///
/// [`RbmError::Parse`] for malformed XML, unknown species references,
/// missing kinetic constants, or non-numeric values.
pub fn from_str(doc: &str) -> Result<ReactionBasedModel, RbmError> {
    let events = scan(doc)?;
    let opened = |element: &str| {
        events.iter().filter(|e| matches!(e, Event::Open { name, .. } if name == element)).count()
    };
    let mut model = ReactionBasedModel::with_capacity(opened("species"), opened("reaction"));
    let mut species_ids: HashMap<String, SpeciesId> = HashMap::new();

    #[derive(PartialEq, Clone, Copy)]
    enum Side {
        None,
        Reactants,
        Products,
    }
    let mut side = Side::None;
    let mut pending: Option<PendingReaction> = None;
    let mut in_kinetic_law = false;

    let finalize = |model: &mut ReactionBasedModel,
                    species_ids: &HashMap<String, SpeciesId>,
                    p: PendingReaction|
     -> Result<(), RbmError> {
        let rate = p.rate.ok_or_else(|| {
            parse_err(&p.id, "reaction has no kinetic constant (localParameter/parameter)")
        })?;
        let map_side = |refs: &[(String, u32)]| -> Result<Vec<(SpeciesId, u32)>, RbmError> {
            refs.iter()
                .map(|(name, c)| {
                    species_ids
                        .get(name)
                        .map(|&id| (id, *c))
                        .ok_or_else(|| parse_err(&p.id, format!("unknown species {name:?}")))
                })
                .collect()
        };
        let reactants = map_side(&p.reactants)?;
        let products = map_side(&p.products)?;
        model.add_reaction(Reaction::mass_action(&reactants, &products, rate))?;
        Ok(())
    };

    for ev in events {
        match ev {
            Event::Open { name, attrs, self_closing } => match name.as_str() {
                "species" => {
                    let id = attrs
                        .get("id")
                        .or_else(|| attrs.get("name"))
                        .ok_or_else(|| parse_err("species", "missing id"))?
                        .clone();
                    let conc = attrs
                        .get("initialConcentration")
                        .or_else(|| attrs.get("initialAmount"))
                        .map(|v| {
                            v.parse::<f64>()
                                .map_err(|_| parse_err(&id, format!("bad concentration {v:?}")))
                        })
                        .transpose()?
                        .unwrap_or(0.0);
                    let sid = model.add_species_checked(id.clone(), conc)?;
                    species_ids.insert(id, sid);
                }
                "reaction" => {
                    let id = attrs.get("id").cloned().unwrap_or_else(|| "reaction".to_string());
                    pending = Some(PendingReaction { id, ..PendingReaction::default() });
                    if self_closing {
                        return Err(parse_err("reaction", "reaction element must have children"));
                    }
                }
                "listOfReactants" => side = Side::Reactants,
                "listOfProducts" => side = Side::Products,
                "kineticLaw" => in_kinetic_law = !self_closing,
                "speciesReference" => {
                    let sp = attrs
                        .get("species")
                        .ok_or_else(|| parse_err("speciesReference", "missing species attribute"))?
                        .clone();
                    let stoich = attrs
                        .get("stoichiometry")
                        .map(|v| {
                            v.parse::<f64>()
                                .map_err(|_| parse_err(&sp, format!("bad stoichiometry {v:?}")))
                        })
                        .transpose()?
                        .unwrap_or(1.0) as u32;
                    if let Some(p) = pending.as_mut() {
                        match side {
                            Side::Reactants => p.reactants.push((sp, stoich)),
                            Side::Products => p.products.push((sp, stoich)),
                            Side::None => {
                                return Err(parse_err(
                                    &sp,
                                    "speciesReference outside reactant/product list",
                                ))
                            }
                        }
                    }
                }
                "localParameter" | "parameter" if in_kinetic_law => {
                    if let Some(p) = pending.as_mut() {
                        if p.rate.is_none() {
                            let v = attrs.get("value").ok_or_else(|| {
                                parse_err(&p.id, "kinetic parameter missing value")
                            })?;
                            p.rate = Some(v.parse::<f64>().map_err(|_| {
                                parse_err(&p.id, format!("bad kinetic constant {v:?}"))
                            })?);
                        }
                    }
                }
                _ => {}
            },
            Event::Close { name } => match name.as_str() {
                "reaction" => {
                    if let Some(p) = pending.take() {
                        finalize(&mut model, &species_ids, p)?;
                    }
                }
                "listOfReactants" | "listOfProducts" => side = Side::None,
                "kineticLaw" => in_kinetic_law = false,
                _ => {}
            },
        }
    }
    Ok(model)
}

/// Serializes a model as mass-action SBML (subset), suitable for reading
/// back with [`from_str`] and for exchange with SBML-based tools.
pub fn to_string(model: &ReactionBasedModel) -> String {
    let mut out = String::from("<?xml version=\"1.0\" encoding=\"UTF-8\"?>\n");
    out.push_str("<sbml xmlns=\"http://www.sbml.org/sbml/level3/version2/core\" level=\"3\" version=\"2\">\n");
    out.push_str("  <model id=\"paraspace_model\">\n    <listOfSpecies>\n");
    for s in model.species() {
        out.push_str(&format!(
            "      <species id=\"{}\" initialConcentration=\"{:e}\"/>\n",
            s.name, s.initial_concentration
        ));
    }
    out.push_str("    </listOfSpecies>\n    <listOfReactions>\n");
    for (i, r) in model.reactions().iter().enumerate() {
        out.push_str(&format!("      <reaction id=\"R{i}\">\n"));
        let write_side = |out: &mut String, tag: &str, side: &[(usize, u32)]| {
            if side.is_empty() {
                return;
            }
            out.push_str(&format!("        <{tag}>\n"));
            for &(s, c) in side {
                out.push_str(&format!(
                    "          <speciesReference species=\"{}\" stoichiometry=\"{c}\"/>\n",
                    model.species()[s].name
                ));
            }
            out.push_str(&format!("        </{tag}>\n"));
        };
        write_side(&mut out, "listOfReactants", r.reactants());
        write_side(&mut out, "listOfProducts", r.products());
        out.push_str(&format!(
            "        <kineticLaw>\n          <listOfLocalParameters>\n            <localParameter id=\"k{i}\" value=\"{:e}\"/>\n          </listOfLocalParameters>\n        </kineticLaw>\n      </reaction>\n",
            r.rate_constant()
        ));
    }
    out.push_str("    </listOfReactions>\n  </model>\n</sbml>\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sbgen::SbGen;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const ENZYME: &str = r#"<?xml version="1.0"?>
<sbml level="3"><model id="enzyme">
  <listOfSpecies>
    <species id="E" initialConcentration="0.1"/>
    <species id="S" initialConcentration="1.0"/>
    <species id="ES" initialConcentration="0"/>
    <species id="P" initialAmount="0"/>
  </listOfSpecies>
  <listOfReactions>
    <reaction id="binding">
      <listOfReactants>
        <speciesReference species="E"/>
        <speciesReference species="S"/>
      </listOfReactants>
      <listOfProducts><speciesReference species="ES"/></listOfProducts>
      <kineticLaw><listOfLocalParameters>
        <localParameter id="kon" value="10.0"/>
      </listOfLocalParameters></kineticLaw>
    </reaction>
    <reaction id="catalysis">
      <listOfReactants><speciesReference species="ES"/></listOfReactants>
      <listOfProducts>
        <speciesReference species="E"/>
        <speciesReference species="P"/>
      </listOfProducts>
      <kineticLaw><listOfLocalParameters>
        <localParameter id="kcat" value="2.0"/>
      </listOfLocalParameters></kineticLaw>
    </reaction>
  </listOfReactions>
</model></sbml>"#;

    #[test]
    fn parses_enzyme_model() {
        let m = from_str(ENZYME).unwrap();
        assert_eq!(m.n_species(), 4);
        assert_eq!(m.n_reactions(), 2);
        assert_eq!(m.rate_constants(), vec![10.0, 2.0]);
        let e = m.species_by_name("E").unwrap();
        assert_eq!(m.reactions()[0].reactants()[0].0, e.index());
        assert_eq!(m.initial_state(), vec![0.1, 1.0, 0.0, 0.0]);
    }

    #[test]
    fn stoichiometry_attribute_respected() {
        let doc = r#"<sbml><model>
          <listOfSpecies><species id="A" initialConcentration="1"/></listOfSpecies>
          <listOfReactions><reaction id="dimerize">
            <listOfReactants><speciesReference species="A" stoichiometry="2"/></listOfReactants>
            <kineticLaw><localParameter id="k" value="3"/></kineticLaw>
          </reaction></listOfReactions>
        </model></sbml>"#;
        let m = from_str(doc).unwrap();
        assert_eq!(m.reactions()[0].reactants(), &[(0, 2)]);
    }

    #[test]
    fn missing_kinetic_constant_is_error() {
        let doc = r#"<sbml><model>
          <listOfSpecies><species id="A" initialConcentration="1"/></listOfSpecies>
          <listOfReactions><reaction id="r">
            <listOfReactants><speciesReference species="A"/></listOfReactants>
            <kineticLaw></kineticLaw>
          </reaction></listOfReactions>
        </model></sbml>"#;
        let err = from_str(doc).unwrap_err();
        assert!(err.to_string().contains("kinetic constant"));
    }

    #[test]
    fn unknown_species_reference_is_error() {
        let doc = r#"<sbml><model>
          <listOfSpecies><species id="A" initialConcentration="1"/></listOfSpecies>
          <listOfReactions><reaction id="r">
            <listOfReactants><speciesReference species="Zed"/></listOfReactants>
            <kineticLaw><localParameter id="k" value="1"/></kineticLaw>
          </reaction></listOfReactions>
        </model></sbml>"#;
        let err = from_str(doc).unwrap_err();
        assert!(err.to_string().contains("Zed"));
    }

    #[test]
    fn comments_and_cdata_are_skipped() {
        let doc = r#"<sbml><!-- a comment with <tags> inside -->
          <model><![CDATA[ <junk> ]]>
          <listOfSpecies><species id="A" initialConcentration="1"/></listOfSpecies>
          <listOfReactions><reaction id="r">
            <listOfReactants><speciesReference species="A"/></listOfReactants>
            <kineticLaw><localParameter id="k" value="1"/></kineticLaw>
          </reaction></listOfReactions>
          </model></sbml>"#;
        assert!(from_str(doc).is_ok());
    }

    #[test]
    fn namespaced_tags_are_recognized() {
        let doc = r#"<sbml:sbml><sbml:model>
          <sbml:listOfSpecies><sbml:species id="A" initialConcentration="1"/></sbml:listOfSpecies>
          <sbml:listOfReactions><sbml:reaction id="r">
            <sbml:listOfReactants><sbml:speciesReference species="A"/></sbml:listOfReactants>
            <sbml:kineticLaw><sbml:localParameter id="k" value="4"/></sbml:kineticLaw>
          </sbml:reaction></sbml:listOfReactions>
          </sbml:model></sbml:sbml>"#;
        let m = from_str(doc).unwrap();
        assert_eq!(m.rate_constants(), vec![4.0]);
    }

    #[test]
    fn export_import_roundtrip() {
        let mut rng = StdRng::seed_from_u64(33);
        let model = SbGen::new(9, 14).generate(&mut rng);
        let doc = to_string(&model);
        let back = from_str(&doc).unwrap();
        assert_eq!(back.n_species(), model.n_species());
        assert_eq!(back.n_reactions(), model.n_reactions());
        for (a, b) in model.reactions().iter().zip(back.reactions()) {
            assert_eq!(a.reactants(), b.reactants());
            assert_eq!(a.products(), b.products());
            assert!((a.rate_constant() - b.rate_constant()).abs() < 1e-18);
        }
    }

    #[test]
    fn unterminated_tag_is_parse_error() {
        assert!(from_str("<sbml><model").is_err());
        assert!(from_str("<!-- never closed").is_err());
    }

    #[test]
    fn single_quoted_attributes_accepted() {
        let doc = "<sbml><model><listOfSpecies><species id='A' initialConcentration='2'/></listOfSpecies></model></sbml>";
        let m = from_str(doc).unwrap();
        assert_eq!(m.initial_state(), vec![2.0]);
    }
}

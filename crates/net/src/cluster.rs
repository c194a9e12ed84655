//! Static cluster description: who participates, where they listen,
//! and which node coordinates.
//!
//! A cluster file is the deployment analogue of the simulator's
//! `powers` slice: one entry per participant, written in a TOML subset
//! (`.toml`, one `[[nodes]]` table per participant; `power` defaults
//! to 1.0):
//!
//! ```toml
//! [[nodes]]
//! id = 0
//! addr = "10.0.0.1:7101"
//! role = "device"
//! power = 3.0
//!
//! [[nodes]]
//! id = 1
//! addr = "10.0.0.2:7101"
//! role = "device"
//!
//! [[nodes]]
//! id = 2
//! addr = "10.0.0.9:7100"
//! role = "coordinator"
//! ```
//!
//! Ids must be dense from 0 and the coordinator must hold the highest
//! id, matching [`hadfl::transport::coordinator_id`].

use std::fmt;
use std::path::Path;

use hadfl::HadflError;

/// A participant's role in the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// Trains locally and joins ring synchronizations.
    Device,
    /// Plans rounds and collects reports (participant id `k`).
    Coordinator,
}

impl fmt::Display for Role {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Role::Device => "device",
            Role::Coordinator => "coordinator",
        })
    }
}

/// One participant: id, listen address, role, and emulated compute
/// power (devices only; the paper's heterogeneity knob).
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Dense participant id; the coordinator holds the highest.
    pub id: usize,
    /// `host:port` this node listens on.
    pub addr: String,
    /// The node's role.
    pub role: Role,
    /// Relative compute power (ignored for the coordinator).
    pub power: f64,
}

/// The full static peer registry.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// All participants, sorted by id.
    pub nodes: Vec<NodeSpec>,
}

fn bad(msg: impl Into<String>) -> HadflError {
    HadflError::InvalidConfig(msg.into())
}

impl ClusterConfig {
    /// Number of devices (`k`); the coordinator is participant `k`.
    pub fn devices(&self) -> usize {
        self.nodes.len() - 1
    }

    /// Total participants, devices plus coordinator.
    pub fn participants(&self) -> usize {
        self.nodes.len()
    }

    /// The spec of participant `id`.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for an unknown id.
    pub fn node(&self, id: usize) -> Result<&NodeSpec, HadflError> {
        self.nodes
            .get(id)
            .ok_or_else(|| bad(format!("no node {id} in cluster")))
    }

    /// Device power ratios, indexed by device id.
    pub fn powers(&self) -> Vec<f64> {
        self.nodes[..self.devices()]
            .iter()
            .map(|n| n.power)
            .collect()
    }

    /// Validates density, role placement, and addresses.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when ids are not dense from
    /// 0, the coordinator is missing, not unique, or not the highest
    /// id, fewer than 2 devices are listed, a power is not positive, or
    /// an address is empty.
    pub fn validate(&self) -> Result<(), HadflError> {
        if self.nodes.len() < 3 {
            return Err(bad("a cluster needs at least 2 devices and a coordinator"));
        }
        for (i, node) in self.nodes.iter().enumerate() {
            if node.id != i {
                return Err(bad(format!(
                    "node ids must be dense from 0; position {i} has id {}",
                    node.id
                )));
            }
            if node.addr.is_empty() {
                return Err(bad(format!("node {i} has an empty address")));
            }
            let expect = if i == self.nodes.len() - 1 {
                Role::Coordinator
            } else {
                Role::Device
            };
            if node.role != expect {
                return Err(bad(format!(
                    "node {i} must be a {expect} (the coordinator holds the highest id)"
                )));
            }
            if node.role == Role::Device && !(node.power > 0.0 && node.power.is_finite()) {
                return Err(bad(format!("device {i} has bad power {}", node.power)));
            }
        }
        Ok(())
    }

    /// Parses a cluster file's contents; `path` must end in `.toml`.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for any other extension,
    /// syntax errors, missing or mistyped fields, and anything
    /// [`validate`](Self::validate) rejects.
    pub fn parse(path: &Path, contents: &str) -> Result<Self, HadflError> {
        let config = match path.extension().and_then(|e| e.to_str()) {
            Some("toml") => Self::from_toml(contents)?,
            other => {
                return Err(bad(format!(
                    "unsupported cluster file extension {other:?} (use .toml)"
                )))
            }
        };
        config.validate()?;
        Ok(config)
    }

    /// Parses the TOML-subset cluster format: `[[nodes]]` tables with
    /// `id`, `addr`, `role`, and optional `power` keys.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] for lines outside the
    /// subset or missing/mistyped fields.
    pub fn from_toml(contents: &str) -> Result<Self, HadflError> {
        // A [[nodes]] table under construction: id, addr, role, power.
        type PartialNode = (Option<usize>, Option<String>, Option<Role>, f64);
        let mut nodes = Vec::new();
        let mut current: Option<PartialNode> = None;
        let mut flush = |cur: &mut Option<PartialNode>| -> Result<(), HadflError> {
            if let Some((id, addr, role, power)) = cur.take() {
                nodes.push(NodeSpec {
                    id: id.ok_or_else(|| bad("[[nodes]] entry missing id"))?,
                    addr: addr.ok_or_else(|| bad("[[nodes]] entry missing addr"))?,
                    role: role.ok_or_else(|| bad("[[nodes]] entry missing role"))?,
                    power,
                });
            }
            Ok(())
        };
        for raw in contents.lines() {
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            if line == "[[nodes]]" {
                flush(&mut current)?;
                current = Some((None, None, None, 1.0));
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| bad(format!("unsupported cluster TOML line: {line:?}")))?;
            let entry = current
                .as_mut()
                .ok_or_else(|| bad(format!("key {:?} outside a [[nodes]] table", key.trim())))?;
            let value = value.trim();
            match key.trim() {
                "id" => {
                    entry.0 = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad(format!("bad node id {value:?}")))?,
                    )
                }
                "addr" => entry.1 = Some(unquote(value)?),
                "role" => entry.2 = Some(role_of(&unquote(value)?)?),
                "power" => {
                    entry.3 = value
                        .parse::<f64>()
                        .map_err(|_| bad(format!("bad power {value:?}")))?
                }
                other => return Err(bad(format!("unknown cluster key {other:?}"))),
            }
        }
        flush(&mut current)?;
        Ok(ClusterConfig { nodes })
    }

    /// Serializes the cluster as a TOML cluster file, the inverse of
    /// [`from_toml`](Self::from_toml).
    pub fn to_toml(&self) -> String {
        self.nodes
            .iter()
            .map(|n| {
                format!(
                    "[[nodes]]\nid = {}\naddr = \"{}\"\nrole = \"{}\"\npower = {:?}\n\n",
                    n.id, n.addr, n.role, n.power
                )
            })
            .collect()
    }

    /// Builds a loopback cluster for `k` devices from concrete
    /// addresses (the test harness binds port 0 first, then describes
    /// the cluster); `addrs[k]` is the coordinator.
    ///
    /// # Errors
    ///
    /// Returns [`HadflError::InvalidConfig`] when the result does not
    /// validate (fewer than 3 addresses).
    pub fn from_addrs(addrs: &[String]) -> Result<Self, HadflError> {
        let nodes = addrs
            .iter()
            .enumerate()
            .map(|(id, addr)| NodeSpec {
                id,
                addr: addr.clone(),
                role: if id == addrs.len() - 1 {
                    Role::Coordinator
                } else {
                    Role::Device
                },
                power: 1.0,
            })
            .collect();
        let config = ClusterConfig { nodes };
        config.validate()?;
        Ok(config)
    }
}

fn unquote(value: &str) -> Result<String, HadflError> {
    let value = value.trim();
    if value.len() >= 2 && value.starts_with('"') && value.ends_with('"') {
        Ok(value[1..value.len() - 1].to_string())
    } else {
        Err(bad(format!("expected a quoted string, got {value:?}")))
    }
}

fn role_of(s: &str) -> Result<Role, HadflError> {
    match s {
        "device" => Ok(Role::Device),
        "coordinator" => Ok(Role::Coordinator),
        other => Err(bad(format!(
            "unknown role {other:?} (device | coordinator)"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> ClusterConfig {
        ClusterConfig::from_addrs(&[
            "127.0.0.1:7101".to_string(),
            "127.0.0.1:7102".to_string(),
            "127.0.0.1:7100".to_string(),
        ])
        .unwrap()
    }

    #[test]
    fn toml_round_trips() {
        let mut cluster = sample();
        cluster.nodes[0].power = 3.0;
        let back = ClusterConfig::parse(Path::new("c.toml"), &cluster.to_toml()).unwrap();
        assert_eq!(back, cluster);
        assert_eq!(back.devices(), 2);
        assert_eq!(back.powers(), vec![3.0, 1.0]);
    }

    #[test]
    fn toml_subset_parses() {
        let toml = r#"
# loopback cluster
[[nodes]]
id = 0
addr = "127.0.0.1:7101"
role = "device"
power = 3.0

[[nodes]]
id = 1
addr = "127.0.0.1:7102"
role = "device"

[[nodes]]
id = 2
addr = "127.0.0.1:7100"
role = "coordinator"
"#;
        let cluster = ClusterConfig::parse(Path::new("c.toml"), toml).unwrap();
        assert_eq!(cluster.devices(), 2);
        assert_eq!(cluster.powers(), vec![3.0, 1.0]);
        assert_eq!(cluster.node(2).unwrap().role, Role::Coordinator);
    }

    #[test]
    fn validation_rejects_misplaced_coordinator() {
        let mut cluster = sample();
        cluster.nodes.swap(0, 2);
        for (i, n) in cluster.nodes.iter_mut().enumerate() {
            n.id = i;
        }
        assert!(cluster.validate().is_err());
    }

    #[test]
    fn validation_rejects_sparse_ids() {
        let mut cluster = sample();
        cluster.nodes[1].id = 5;
        assert!(cluster.validate().is_err());
    }

    #[test]
    fn parse_rejects_unknown_extension_and_garbage() {
        assert!(ClusterConfig::parse(Path::new("c.yaml"), "{}").is_err());
        assert!(ClusterConfig::parse(Path::new("c.toml"), "id = 0").is_err());
        // A well-formed JSON cluster is still the wrong format.
        let json = r#"{
  "nodes": [
    {
      "id": 0,
      "addr": "127.0.0.1:7101",
      "role": "device",
      "power": 1.0
    },
    {
      "id": 1,
      "addr": "127.0.0.1:7102",
      "role": "device",
      "power": 1.0
    },
    {
      "id": 2,
      "addr": "127.0.0.1:7100",
      "role": "coordinator",
      "power": 1.0
    }
  ]
}"#;
        let err = ClusterConfig::parse(Path::new("c.json"), json).unwrap_err();
        assert!(err.to_string().contains(".toml"), "{err}");
    }
}

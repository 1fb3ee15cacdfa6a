//! The fleet-wide command bus: a deterministic, append-only log of
//! control-plane commands and what became of them.
//!
//! Modelled on thin-edge.io's device-management command flow (a command
//! is published, a device-side plugin executes it, the outcome is
//! reported back), collapsed to the synchronous simulated case: the
//! issuer records the command *with* its disposition in one step. The
//! log is the audit trail the report's `campaigns.commands` section and
//! the campaign metrics are derived from.

use std::fmt;
use xlf_stream::{CheckpointError, Reader, Writer};

/// What a control-plane command asks a device to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CommandKind {
    /// Install a staged firmware image (campaign wave).
    FirmwareUpdate,
    /// Return to the known-good image (containment).
    FirmwareRollback,
    /// Isolate the device pending investigation (containment).
    Quarantine,
    /// Reset a drifted configuration to the golden fingerprint.
    ConfigRemediate,
}

/// Every command kind, in stable order (drives per-kind accounting).
pub const COMMAND_KINDS: [CommandKind; 4] = [
    CommandKind::FirmwareUpdate,
    CommandKind::FirmwareRollback,
    CommandKind::Quarantine,
    CommandKind::ConfigRemediate,
];

impl CommandKind {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            CommandKind::FirmwareUpdate => "firmware-update",
            CommandKind::FirmwareRollback => "firmware-rollback",
            CommandKind::Quarantine => "quarantine",
            CommandKind::ConfigRemediate => "config-remediate",
        }
    }
}

impl fmt::Display for CommandKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// What became of an issued command.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Disposition {
    /// The device executed the command.
    Applied,
    /// The device refused (the device-layer check that fired).
    Rejected(String),
    /// Issued to an out-of-band channel; no device-side execution to
    /// observe (e.g. quarantine markers consumed by the operator tier).
    Issued,
}

impl Disposition {
    /// Stable short name (used in reports and JSON).
    pub fn name(&self) -> &'static str {
        match self {
            Disposition::Applied => "applied",
            Disposition::Rejected(_) => "rejected",
            Disposition::Issued => "issued",
        }
    }
}

/// One command in the control-plane audit log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CommandRecord {
    /// Fleet-wide home the command targeted.
    pub home: u64,
    /// Device within the home (or `"config"` for config commands).
    pub device: String,
    /// Stream epoch the command was issued in.
    pub epoch: u64,
    /// What was asked.
    pub kind: CommandKind,
    /// What happened.
    pub disposition: Disposition,
}

/// The append-only command log. Commands are recorded in issue order,
/// which is deterministic: the campaign/audit engines iterate homes in
/// id order and epochs in sequence.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CommandBus {
    log: Vec<CommandRecord>,
}

impl CommandBus {
    /// An empty bus.
    pub fn new() -> Self {
        CommandBus::default()
    }

    /// Appends one command with its disposition.
    pub fn record(
        &mut self,
        home: u64,
        device: &str,
        epoch: u64,
        kind: CommandKind,
        disposition: Disposition,
    ) {
        self.log.push(CommandRecord {
            home,
            device: device.to_string(),
            epoch,
            kind,
            disposition,
        });
    }

    /// The full audit log, in issue order.
    pub fn log(&self) -> &[CommandRecord] {
        &self.log
    }

    /// Total commands recorded.
    pub fn total(&self) -> u64 {
        self.log.len() as u64
    }

    /// Commands of `kind` that were applied.
    pub fn applied(&self, kind: CommandKind) -> u64 {
        self.count_by(kind, |d| matches!(d, Disposition::Applied))
    }

    /// Commands of `kind` the device rejected.
    pub fn rejected(&self, kind: CommandKind) -> u64 {
        self.count_by(kind, |d| matches!(d, Disposition::Rejected(_)))
    }

    /// Commands of `kind` issued out-of-band.
    pub fn issued(&self, kind: CommandKind) -> u64 {
        self.count_by(kind, |d| matches!(d, Disposition::Issued))
    }

    fn count_by(&self, kind: CommandKind, pred: impl Fn(&Disposition) -> bool) -> u64 {
        self.log
            .iter()
            .filter(|r| r.kind == kind && pred(&r.disposition))
            .count() as u64
    }

    /// Serializes the full audit log into a run-level snapshot section.
    pub fn checkpoint_into(&self, w: &mut Writer) {
        w.usize(self.log.len());
        for rec in &self.log {
            w.u64(rec.home);
            w.str(&rec.device);
            w.u64(rec.epoch);
            let kind = COMMAND_KINDS
                .iter()
                .position(|k| *k == rec.kind)
                .unwrap_or(0);
            w.u8(kind as u8);
            match &rec.disposition {
                Disposition::Applied => w.u8(0),
                Disposition::Rejected(reason) => {
                    w.u8(1);
                    w.str(reason);
                }
                Disposition::Issued => w.u8(2),
            }
        }
    }

    /// Restores a bus serialized with [`CommandBus::checkpoint_into`].
    ///
    /// # Errors
    ///
    /// [`CheckpointError`] on any framing violation or malformed content
    /// (unknown kind index / disposition tag, invalid UTF-8).
    pub fn restore_from(r: &mut Reader) -> Result<CommandBus, CheckpointError> {
        let n = r.usize()?;
        let mut log = Vec::new();
        for _ in 0..n {
            let home = r.u64()?;
            let device = r.string()?;
            let epoch = r.u64()?;
            let kind = *COMMAND_KINDS
                .get(usize::from(r.u8()?))
                .ok_or(CheckpointError::Truncated)?;
            let disposition = match r.u8()? {
                0 => Disposition::Applied,
                1 => Disposition::Rejected(r.string()?),
                2 => Disposition::Issued,
                _ => return Err(CheckpointError::Truncated),
            };
            log.push(CommandRecord {
                home,
                device,
                epoch,
                kind,
                disposition,
            });
        }
        Ok(CommandBus { log })
    }
}

/// Length-prefixed UTF-8 string encoding shared by the snapshot sections.
#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bus_accounts_by_kind_and_disposition() {
        let mut bus = CommandBus::new();
        bus.record(
            1,
            "cam",
            8,
            CommandKind::FirmwareUpdate,
            Disposition::Applied,
        );
        bus.record(
            2,
            "cam",
            8,
            CommandKind::FirmwareUpdate,
            Disposition::Rejected("update rejected: unsigned image".to_string()),
        );
        bus.record(1, "cam", 11, CommandKind::Quarantine, Disposition::Issued);
        assert_eq!(bus.total(), 3);
        assert_eq!(bus.applied(CommandKind::FirmwareUpdate), 1);
        assert_eq!(bus.rejected(CommandKind::FirmwareUpdate), 1);
        assert_eq!(bus.issued(CommandKind::Quarantine), 1);
        assert_eq!(bus.applied(CommandKind::FirmwareRollback), 0);
        assert_eq!(bus.log().len(), 3);
        assert_eq!(bus.log()[0].home, 1);
    }

    #[test]
    fn kind_names_are_stable_and_cover_all_kinds() {
        let names: Vec<&str> = COMMAND_KINDS.iter().map(|k| k.name()).collect();
        assert_eq!(
            names,
            vec![
                "firmware-update",
                "firmware-rollback",
                "quarantine",
                "config-remediate"
            ]
        );
    }
}

(** Journalfs: the Reiserfs stand-in for experiment E7.

    A journaling filesystem layered on the memfs engine whose CPU-bound
    hot paths — journal-header checksumming, directory-entry scanning and
    block-bitmap search — are mini-C routines run through an embedded
    interpreter.  "Compiling the module with KGCC" means passing that
    mini-C source through the KGCC instrumentation pass; the instrumented
    code executes more work per byte, reproducing the paper's system-time
    blow-up under metadata-heavy workloads. *)

(** The module's mini-C source (exported for the E8 compile-statistics
    corpus). *)
val source : string

type t

(** Outcome of a replay-on-mount pass over the write-ahead log. *)
type recover_info = {
  rec_scanned : int;      (** WAL records read from the image *)
  rec_replayed : int;     (** committed intents applied *)
  rec_skipped : int;      (** intents already applied (idempotent re-replay) *)
  rec_aborted : int;      (** intents whose operation failed (abort record) *)
  rec_torn : int;         (** trailing intents with neither verdict: discarded *)
  rec_errors : string list; (** malformed records / replay failures *)
}

(** [create ?transform ?attach ?data_journal kernel]:
    [transform] is the "compiler" — identity models GCC, the KGCC pass
    models KGCC; [attach] runs on the embedded interpreter before the
    module loads (KGCC hooks its runtime there so it sees every
    allocation); [data_journal] additionally checksums data heads
    (most journaling filesystems do metadata-only, the default).

    With [durable], every mutating operation is bracketed by
    write-ahead records in the device image (intent, then commit on
    [Ok] / abort on [Error]) through {!Block_dev.write_block_data} — the
    only writes that survive {!Block_dev.Power_loss}, and the writes
    the [blockdev.crash_point] sweep probes.  A durable mount with an
    [image] replays the WAL before serving anything (see {!replay}).
    Without [durable] the journal is the legacy headers-only model:
    byte-for-byte the behavior of previous revisions. *)
val create :
  ?transform:(Minic.Ast.program -> Minic.Ast.program) ->
  ?attach:(Minic.Interp.t -> unit) ->
  ?data_journal:bool ->
  ?durable:bool ->
  ?image:Block_dev.image ->
  Ksim.Kernel.t ->
  t

(** The embedded interpreter running the module's hot paths. *)
val interp : t -> Minic.Interp.t

(** The operations vector (pass to {!Vfs.create}). *)
val ops : t -> Vtypes.ops

type stats = {
  journal_records : int;
  hot_calls : int;       (** mini-C hot-path invocations *)
  interp_steps : int;
  checksum_acc : int;    (** running checksum (keeps the work honest) *)
}

val stats : t -> stats

(** The memfs engine underneath (direct access for recovery checks). *)
val inner : t -> Memfs.t

(** The block device underneath (its {!Block_dev.image} is what a
    reboot starts from). *)
val dev : t -> Block_dev.t

val durable : t -> bool

(** Replay the write-ahead log against the inner filesystem: applies
    committed intents in order, skips aborted ones, discards a torn
    tail.  Idempotent — intents already applied (tracked by sequence
    number) are skipped, so replaying twice equals replaying once.
    Runs automatically on a durable mount. *)
val replay : t -> recover_info

(** The outcome of the most recent {!replay}, if any ran. *)
val last_recover : t -> recover_info option

(** {!Memfs.fsck} on the inner filesystem. *)
val fsck : t -> string list

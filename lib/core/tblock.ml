(** Translated code as the synthesized engine caches it.

    A {!site} is one instruction class specialized against one concrete
    encoding; sites are shared through the engine's [(class, encoding)]
    cache. A translation unit ({!t}) is the run of sites starting at one
    pc: a basic block of up to 64 sites on block buildsets, a single site
    on every other buildset. Every call style runs units; a Step fetch
    records its unit on the DI record ({!Di.t.fetched}) so the later
    steps of that instruction run its segments without reading memory or
    probing a table again. Engine-owned: timing models never look
    inside. *)

(** One compiled segment per entrypoint: entrypoint [k]'s part of the
    instruction, the code [step _ k] runs. *)
type site = Semir.Compile.code array

(** [b_pcs] has len+1 entries; the last one is the fall-through pc, so
    the execution loop does no per-instruction address arithmetic.
    [b_s1]/[b_s2] form a bi-morphic inline cache on exit pc: when the
    previous unit's exit lands on a remembered successor, dispatch goes
    unit-to-unit without touching the hash table. [b_valid] is cleared
    when a write lands on a page holding this unit's code (or on
    [flush_code_cache]); the execution loop re-checks it after every
    site so a block that rewrites itself stops at the site that did the
    write. *)
type t = {
  b_pc0 : int64;
  b_codes : Semir.Compile.code array;  (** each site's whole instruction *)
  b_segs : site;  (** the first site *)
  b_encs : int64 array;  (** each site's parcel; the fetch window if illegal *)
  b_idxs : int array;  (** each site's class; -1 if illegal *)
  b_pcs : int64 array;
  b_window : int64;  (** the full fetch window at [b_pc0] *)
  b_fetch_next : int64;  (** [b_pc0] plus the fetch width *)
  b_stable : bool;
      (** every site is statically store- and syscall-free, so the block
          cannot invalidate itself (or any other block) mid-run: the
          per-site [b_valid] recheck is elided. Invalidation between
          runs is still honored — dispatch only trusts [b_valid]. *)
  mutable b_valid : bool;
  mutable b_s1_pc : int64;
  mutable b_s1 : t;
  mutable b_s2_pc : int64;
  mutable b_s2 : t;
}

(** Sentinel predecessor/successor and the unit of a DI record nothing
    was fetched into: never valid, so it can neither be dispatched
    through nor receive successor installs. *)
let rec dummy =
  {
    b_pc0 = -1L;
    b_codes = [||];
    b_segs = [||];
    b_encs = [||];
    b_idxs = [||];
    b_pcs = [||];
    b_window = 0L;
    b_fetch_next = 0L;
    b_stable = false;
    b_valid = false;
    b_s1_pc = -1L;
    b_s1 = dummy;
    b_s2_pc = -1L;
    b_s2 = dummy;
  }

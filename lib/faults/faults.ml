(* Deterministic fault injection for the tape substrate, plus the
   bounded-retry combinator the deciders use to survive it.

   The whole module is seeded: a [Plan] derives one private
   [Random.State] per tape from [(plan seed, tape name)] by the same
   splitmix64 finalizer [lib/parallel] uses for chunk seeding — never
   from allocation order, wall clock or worker count — so a faulty run
   is bit-identical under -j 1 / -j 2 / -j 4, exactly like a clean
   one. *)

exception Transient_io of string

type rates = {
  bit_flip : float;
  stuck_read : float;
  torn_write : float;
  transient : float;
}

let zero = { bit_flip = 0.0; stuck_read = 0.0; torn_write = 0.0; transient = 0.0 }

let check_rate label r =
  if not (r >= 0.0 && r <= 1.0) then
    invalid_arg (Printf.sprintf "Faults: %s rate %g outside [0,1]" label r)

(* FNV-1a of a name folded into a seed, finalized by splitmix64 into
   the four words a [Random.State] wants — every derived stream
   (per-tape injection, per-device storage faults). The name is the
   only per-stream input: streams created in any order, on any domain,
   with the same name draw identically. *)
let derive_words ~seed ~name =
  Util.Hash.seed_words (Util.Hash.fnv_string (Int64.of_int seed) name)

module Plan = struct
  type t = { seed : int; rates : rates }

  let create ~seed ~rates =
    check_rate "bit_flip" rates.bit_flip;
    check_rate "stuck_read" rates.stuck_read;
    check_rate "torn_write" rates.torn_write;
    check_rate "transient" rates.transient;
    { seed; rates }

  let derive t ~name = derive_words ~seed:t.seed ~name
end

(* ------------------------------------------------------------------ *)
(* corruptors *)

let flip01 _st c =
  match c with '0' -> '1' | '1' -> '0' | c -> c

let flip_string_bit st s =
  if String.length s = 0 then s
  else begin
    let i = Random.State.int st (String.length s) in
    let b = Bytes.of_string s in
    (* xor of the low bit always changes the byte and keeps the {0,1}
       and decimal-digit alphabets inside themselves *)
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor 1));
    Bytes.to_string b
  end

(* ------------------------------------------------------------------ *)
(* attaching a plan to a tape *)

let hit st p = p > 0.0 && Random.State.float st 1.0 < p

let injection plan ~name ~blank ~corrupt =
  let st = Random.State.make (Plan.derive plan ~name) in
  let r = plan.Plan.rates in
  let transient op = Transient_io (Printf.sprintf "%s: transient %s fault" name op) in
  {
    Tape.Injection.on_read =
      (fun ~pos:_ v ->
        if hit st r.transient then Tape.Injection.Read_fail (transient "read")
        else if hit st r.stuck_read then Tape.Injection.Read_value blank
        else if hit st r.bit_flip then Tape.Injection.Read_value (corrupt st v)
        else Tape.Injection.Read_ok);
    on_write =
      (fun ~pos:_ v ->
        if hit st r.transient then Tape.Injection.Write_fail (transient "write")
        else if hit st r.torn_write then Tape.Injection.Write_drop
        else if hit st r.bit_flip then Tape.Injection.Write_value (corrupt st v)
        else Tape.Injection.Write_ok);
    on_move =
      (fun ~pos:_ _dir ->
        if hit st r.transient then Tape.Injection.Move_fail (transient "seek")
        else Tape.Injection.Move_ok);
  }

let attach plan ~corrupt tp =
  let blank = Tape.blank tp in
  Tape.set_injection tp (Some (fun name -> injection plan ~name ~blank ~corrupt))

let attach_char plan tp = attach plan ~corrupt:flip01 tp
let attach_string plan tp = attach plan ~corrupt:flip_string_bit tp

(* ------------------------------------------------------------------ *)
(* storage faults: injection below the [Tape.Device.Raw] syscall seam *)

module Storage = struct
  type rates = {
    bit_rot : float;
    short_read : float;
    short_write : float;
    io_error : float;
    torn_write : float;
  }

  let zero =
    {
      bit_rot = 0.0;
      short_read = 0.0;
      short_write = 0.0;
      io_error = 0.0;
      torn_write = 0.0;
    }

  exception Crashed of { op : int }

  module Plan = struct
    type t = {
      seed : int;
      rates : rates;
      enospc_after : int option;
      crash_at : int option;
      crash : int -> unit;
      ops : int Atomic.t;
      write_ops : int Atomic.t;
    }

    let create ?enospc_after ?crash_at ?crash ~seed ~rates () =
      check_rate "bit_rot" rates.bit_rot;
      check_rate "short_read" rates.short_read;
      check_rate "short_write" rates.short_write;
      check_rate "io_error" rates.io_error;
      check_rate "torn_write" rates.torn_write;
      {
        seed;
        rates;
        enospc_after;
        crash_at;
        crash =
          (match crash with
          | Some f -> f
          | None -> fun op -> raise (Crashed { op }));
        ops = Atomic.make 0;
        write_ops = Atomic.make 0;
      }

    let ops t = Atomic.get t.ops
  end

  (* The raw-seam wrapper for one device. Each stream is keyed on
     ("storage:" ^ tape name) — a disjoint namespace from the
     above-seam injection streams — so the two plans can share a seed
     without correlating. The op counter is plan-global (1-based, in
     syscall order), which is what makes a crash point like
     "the 17th raw op" meaningful and reproducible. *)
  let raw_for (t : Plan.t) : Tape.Device.raw_factory =
   fun ~name ->
    let st = Random.State.make (derive_words ~seed:t.Plan.seed ~name:("storage:" ^ name)) in
    let real = Tape.Device.Raw.real in
    let r = t.Plan.rates in
    let tick () =
      let op = Atomic.fetch_and_add t.Plan.ops 1 + 1 in
      (match t.Plan.crash_at with
      | Some k when op = k -> t.Plan.crash op
      | _ -> ());
      op
    in
    {
      Tape.Device.Raw.pread =
        (fun fd buf ~pos ~len ~off ->
          ignore (tick ());
          if hit st r.io_error then
            raise (Unix.Unix_error (Unix.EIO, "pread", name));
          let n = real.Tape.Device.Raw.pread fd buf ~pos ~len ~off in
          let n =
            if n > 1 && hit st r.short_read then 1 + Random.State.int st (n - 1)
            else n
          in
          if n > 0 && hit st r.bit_rot then begin
            let i = pos + Random.State.int st n in
            Bytes.set buf i
              (Char.chr
                 (Char.code (Bytes.get buf i) lxor (1 lsl Random.State.int st 8)));
          end;
          n);
      pwrite =
        (fun fd buf ~pos ~len ~off ->
          ignore (tick ());
          let wop = Atomic.fetch_and_add t.Plan.write_ops 1 + 1 in
          (match t.Plan.enospc_after with
          | Some k when wop >= k ->
              (* a full disk stays full: every later write fails too *)
              raise (Unix.Unix_error (Unix.ENOSPC, "pwrite", name))
          | _ -> ());
          if hit st r.io_error then
            raise (Unix.Unix_error (Unix.EIO, "pwrite", name));
          if hit st r.torn_write then begin
            (* tear at the pwrite boundary: a strict prefix lands on
               disk, then the write reports failure *)
            let cut = Random.State.int st len in
            if cut > 0 then
              ignore (real.Tape.Device.Raw.pwrite fd buf ~pos ~len:cut ~off);
            raise (Unix.Unix_error (Unix.EIO, "pwrite", name))
          end;
          if len > 1 && hit st r.short_write then
            real.Tape.Device.Raw.pwrite fd buf ~pos
              ~len:(1 + Random.State.int st (len - 1))
              ~off
          else real.Tape.Device.Raw.pwrite fd buf ~pos ~len ~off);
      fsync =
        (fun fd ->
          ignore (tick ());
          real.Tape.Device.Raw.fsync fd);
      rename =
        (fun a b ->
          ignore (tick ());
          real.Tape.Device.Raw.rename a b);
      remove =
        (fun p ->
          ignore (tick ());
          real.Tape.Device.Raw.remove p);
    }
end

(* ------------------------------------------------------------------ *)
(* retry *)

module Retry = struct
  type classification = Transient | Fatal

  type policy = { attempts : int }

  exception Gave_up of { label : string; attempts : int; last : exn }

  (* Real device I/O can fail transiently too: a byte-backed tape
     surfaces interrupted syscalls as [Unix_error]s, and a restartable
     phase recovers from those exactly as from an injected fault. A
     checksum failure is transient on purpose: the offending block is
     quarantined before [Corrupt] is raised, so the retrying phase
     re-reads it from disk (in-transit rot heals; rot at rest gives
     up after [attempts]). ENOSPC and EROFS are explicitly fatal — a
     full or read-only disk never heals by retrying, it needs the
     operator (and exit code 10). *)
  let classify = function
    | Transient_io _ -> Transient
    | Tape.Device.Corrupt _ -> Transient
    | Unix.Unix_error ((Unix.ENOSPC | Unix.EROFS), _, _) -> Fatal
    | Unix.Unix_error
        ((Unix.EINTR | Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EIO), _, _) ->
        Transient
    | _ -> Fatal

  let default = { attempts = 3 }

  let run ?(policy = default) ~label f =
    if policy.attempts < 1 then invalid_arg "Faults.Retry.run: attempts >= 1";
    let rec go attempt =
      try f ()
      with e -> (
        match classify e with
        | Fatal -> raise e
        | Transient ->
            if attempt >= policy.attempts then begin
              Obs.Counters.add_retry_gave_up 1;
              raise (Gave_up { label; attempts = policy.attempts; last = e })
            end
            else begin
              Obs.Counters.add_retry_attempts 1;
              go (attempt + 1)
            end)
    in
    go 1
end

let policy faults retry =
  match (faults, retry) with
  | _, Some _ -> retry
  | Some _, None -> Some Retry.default
  | None, None -> None

let phase ?retry ~label f =
  match retry with None -> f () | Some policy -> Retry.run ~policy ~label f

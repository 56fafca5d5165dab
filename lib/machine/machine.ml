open Wn_util
open Wn_isa

type config = { memo_entries : int option; zero_skip : bool }

let default_config = { memo_entries = None; zero_skip = false }

(* The core keeps two representations of the program: the [int Instr.t]
   array (the architectural instruction memory, used for disassembly,
   static analysis and the reference interpreter) and a predecoded
   dispatch table [code] built once at [create] — one closure per PC,
   capturing only immutable operand data (register indices, immediates,
   precomputed latencies).  [step_fast] dispatches through [code] and
   reports its effects in the [last_*] scratch fields instead of
   allocating a [step_result]; [step] is a compatibility wrapper that
   reifies the scratch fields into the record.

   Flags are four mutable bools (not a [Cond.flags] record) so [Cmp]
   does not allocate; [flags] materialises the record on demand. *)
type t = {
  program : int Instr.t array;
  mem : Wn_mem.Memory.t;
  regs : int array;
  mutable pcv : int;
  mutable fn : bool;
  mutable fz : bool;
  mutable fc : bool;
  mutable fv : bool;
  mutable halt : bool;
  mutable skim : int option;
  memo_table : Memo.t option;
  zero_skip : bool;
  mutable retired : int;
  mutable wn_retired : int;
  mutable cycles : int;
  (* Step budget for fault injection: -1 means unlimited; a value n >= 0
     counts down by one per retired instruction (on both the fast and
     the reference path) and holds at 0.  [budget_exhausted] then lets
     an executor force an outage at an exact instruction boundary
     without per-step overhead beyond one int compare. *)
  mutable steps_left : int;
  code : (t -> unit) array;
  (* step_fast scratch: effects of the last instruction, encoded without
     allocation.  Addresses are -1 when the instruction made no access
     of that kind; the byte counts are only meaningful when the
     corresponding address is >= 0. *)
  mutable last_pc : int;
  mutable last_cycles : int;
  mutable last_read_addr : int;
  mutable last_read_bytes : int;
  mutable last_wrote_addr : int;
  mutable last_wrote_bytes : int;
  mutable last_memo_hit : bool;
  mutable last_zero_skipped : bool;
  mutable last_skm : bool;
  (* Block-compiled execution: per-pc table of fused superinstructions
     (entries only at run-start pcs), built lazily on first use because
     it needs a CFG pass over the program.  [blk_reads] is the scratch
     ring fused load closures record their effective addresses into —
     fixed slots, one per load of the executing run, so the executor can
     replay Clank read tracking after the block commits. *)
  mutable fused_table : fused option array;
  mutable blk_reads : int array;
  mutable blocks_built : bool;
}

(* One fused run: store-free, [Skm]-free, statically timed interior,
   optionally ending in its block's [B] (see [Wn_analysis.Fuse]).
   [b_code] holds one bare closure per instruction — the architectural
   effect only, none of the per-step scratch/pc/statistics writes, which
   [exec_block] batches.  A terminating branch's closure is the only one
   that writes [pcv] and [last_cycles]: the exit pc and the latency it
   paid, taken or fall-through. *)
and fused = {
  b_first : int;
  b_len : int;
  b_cycles : int;  (* worst-case total: sum of [Instr.worst_cycles] *)
  b_pre_cycles : int;  (* cycles before the last instruction *)
  b_last_cost : int;  (* worst (taken) latency of the last instruction *)
  b_branch : bool;  (* the last instruction is a [B] *)
  b_costs : int array;  (* worst per-instruction latency, in order *)
  b_fall_costs : int array;
      (* [b_costs] with the branch priced fall-through; the same array
         as [b_costs] unless the run ends in a conditional branch *)
  b_loads : int;  (* load instructions in the run *)
  b_wn : int;  (* WN-extension instructions in the run *)
  b_last_is_load : bool;
  b_read_bytes : int;  (* bytes of the run's last load; 0 if no load *)
  b_code : (t -> unit) array;
}

let u32 v = v land 0xFFFF_FFFF

let signed32 v = Subword.to_signed ~bits:32 v

(* Flag computation for compares: NZCV of rn - rm on the 32-bit
   datapath. *)
let set_compare_flags t a b =
  let sa = signed32 a and sb = signed32 b in
  let result = u32 (sa - sb) in
  let n = result land 0x8000_0000 <> 0 in
  t.fn <- n;
  t.fz <- result = 0;
  t.fc <- a >= b;
  (* signed overflow: operands of differing sign and the truncated
     result's sign differs from the minuend's *)
  t.fv <- (sa < 0) <> (sb < 0) && (sa < 0) <> n

(* Cond.holds over the unboxed flag fields (same truth table, no
   record to build). *)
let holds c t =
  match (c : Cond.t) with
  | Al -> true
  | Eq -> t.fz
  | Ne -> not t.fz
  | Lt -> t.fn <> t.fv
  | Ge -> t.fn = t.fv
  | Gt -> (not t.fz) && t.fn = t.fv
  | Le -> t.fz || t.fn <> t.fv
  | Lo -> not t.fc
  | Hs -> t.fc
  | Mi -> t.fn
  | Pl -> not t.fn

let alu_eval op a b =
  match (op : Instr.alu_op) with
  | Add -> a + b
  | Sub -> a - b
  | And -> a land b
  | Orr -> a lor b
  | Eor -> a lxor b
  | Bic -> a land lnot b
  | Adc -> a + b (* carry-in unused: the compiler never emits Adc/Sbc chains *)
  | Sbc -> a - b

(* Digit-by-digit (restoring) square root: decide result bits from the
   most significant down; each decision is final, so computing only the
   top [bits] of the 16-bit root is exact truncation of the full
   root. *)
let isqrt_top ~bits n =
  let r = ref 0 in
  for bitpos = 15 downto 16 - bits do
    let candidate = !r lor (1 lsl bitpos) in
    if candidate * candidate <= n then r := candidate
  done;
  !r

(* ---------------- predecode ---------------- *)

let reader (width : Instr.width) ~signed =
  let open Wn_mem in
  match (width, signed) with
  | Instr.Byte, false -> fun mem addr -> Memory.read8 mem addr
  | Instr.Byte, true -> fun mem addr -> u32 (Memory.read8_signed mem addr)
  | Instr.Half, false -> fun mem addr -> Memory.read16 mem addr
  | Instr.Half, true -> fun mem addr -> u32 (Memory.read16_signed mem addr)
  | Instr.Word, _ -> fun mem addr -> Memory.read32 mem addr

let writer (width : Instr.width) =
  let open Wn_mem in
  match width with
  | Instr.Byte -> Memory.write8
  | Instr.Half -> Memory.write16
  | Instr.Word -> Memory.write32

let access_bytes (width : Instr.width) =
  match width with Instr.Byte -> 1 | Instr.Half -> 2 | Instr.Word -> 4

(* Multiply front end (zero-skip / memoization), specialized per machine
   configuration at predecode time.  Decides the latency actually paid
   and the hit/skip statistics; the caller writes the product. *)
let mul_front ~zero_skip ~memo_table ~full =
  match (memo_table, zero_skip) with
  | None, false -> fun t _a _b -> t.last_cycles <- full
  | None, true ->
      fun t a b ->
        if a = 0 || b = 0 then begin
          t.last_cycles <- 1;
          t.last_zero_skipped <- true
        end
        else t.last_cycles <- full
  | Some table, zs ->
      fun t a b ->
        if zs && (a = 0 || b = 0) then begin
          t.last_cycles <- 1;
          t.last_zero_skipped <- true
        end
        else begin
          ignore (Memo.find_or_add table ~a ~b ~miss:(u32 (a * b)));
          if Memo.last_was_hit table then begin
            t.last_cycles <- 1;
            t.last_memo_hit <- true
          end
          else t.last_cycles <- full
        end

(* One dispatch closure per PC.  Closures never capture the machine
   itself, only operand data, so a single predecoded table serves the
   machine for its whole lifetime — [reset_for_new_task] and
   [scrub_volatile] need no re-decode. *)
let compile_op ~zero_skip ~memo_table pc (i : int Instr.t) : t -> unit =
  let next = pc + 1 in
  let idx = Reg.index in
  match i with
  | Instr.Nop ->
      fun t ->
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Halt ->
      fun t ->
        t.halt <- true;
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Mov_imm (rd, imm) ->
      let rd = idx rd and imm = u32 imm in
      fun t ->
        t.regs.(rd) <- imm;
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Movt (rd, imm) ->
      let rd = idx rd and hi = imm lsl 16 in
      fun t ->
        t.regs.(rd) <- u32 ((t.regs.(rd) land 0xFFFF) lor hi);
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Mov (rd, rn) ->
      let rd = idx rd and rn = idx rn in
      fun t ->
        t.regs.(rd) <- t.regs.(rn);
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Alu (op, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t ->
        t.regs.(rd) <- u32 (alu_eval op t.regs.(rn) t.regs.(rm));
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Alu_imm (op, rd, rn, imm) ->
      let rd = idx rd and rn = idx rn in
      fun t ->
        t.regs.(rd) <- u32 (alu_eval op t.regs.(rn) imm);
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Shift (op, rd, rn, sh) -> (
      let rd = idx rd and rn = idx rn in
      match op with
      | Instr.Lsl ->
          fun t ->
            t.regs.(rd) <- u32 (t.regs.(rn) lsl sh);
            t.last_cycles <- 1;
            t.pcv <- next
      | Instr.Lsr ->
          fun t ->
            t.regs.(rd) <- u32 (t.regs.(rn) lsr sh);
            t.last_cycles <- 1;
            t.pcv <- next
      | Instr.Asr ->
          fun t ->
            t.regs.(rd) <- u32 (signed32 t.regs.(rn) asr sh);
            t.last_cycles <- 1;
            t.pcv <- next)
  | Instr.Mul (rd, rn, rm) -> (
      let rd = idx rd and rn = idx rn and rm = idx rm in
      match (memo_table, zero_skip) with
      | None, false ->
          fun t ->
            t.regs.(rd) <- u32 (t.regs.(rn) * t.regs.(rm));
            t.last_cycles <- 16;
            t.pcv <- next
      | None, true ->
          fun t ->
            let a = t.regs.(rn) and b = t.regs.(rm) in
            if a = 0 || b = 0 then begin
              t.regs.(rd) <- 0;
              t.last_cycles <- 1;
              t.last_zero_skipped <- true
            end
            else begin
              t.regs.(rd) <- u32 (a * b);
              t.last_cycles <- 16
            end;
            t.pcv <- next
      | Some table, zs ->
          fun t ->
            let a = t.regs.(rn) and b = t.regs.(rm) in
            if zs && (a = 0 || b = 0) then begin
              t.regs.(rd) <- 0;
              t.last_cycles <- 1;
              t.last_zero_skipped <- true
            end
            else begin
              (* On a hit the cached product is written (it equals the
                 recomputed one for any table the machine itself filled). *)
              t.regs.(rd) <- Memo.find_or_add table ~a ~b ~miss:(u32 (a * b));
              if Memo.last_was_hit table then begin
                t.last_cycles <- 1;
                t.last_memo_hit <- true
              end
              else t.last_cycles <- 16
            end;
            t.pcv <- next)
  | Instr.Mul_asp { bits; signed; rd; rn; shift } ->
      (* rd := rd * subword, shifted into place.  The subword sits in
         the low [bits] bits of rn (a byte load or shift put it there);
         the most significant subword of signed data multiplies
         signed. *)
      let rd = idx rd and rn = idx rn in
      let front = mul_front ~zero_skip ~memo_table ~full:bits in
      fun t ->
        let sub_raw = Subword.truncate ~bits t.regs.(rn) in
        let multiplicand = signed32 t.regs.(rd) in
        let sub = if signed then Subword.to_signed ~bits sub_raw else sub_raw in
        (* The memo table and zero-skip front end decide the latency; the
           product itself is recomputed signed (the cached pattern equals
           it bit-for-bit). *)
        front t (u32 multiplicand) (u32 sub);
        t.regs.(rd) <- u32 ((multiplicand * sub) lsl shift);
        t.wn_retired <- t.wn_retired + 1;
        t.pcv <- next
  | Instr.Add_asv (w, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t ->
        t.regs.(rd) <- Subword.lanes_add ~lane_bits:w ~width:32 t.regs.(rn) t.regs.(rm);
        t.wn_retired <- t.wn_retired + 1;
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Sub_asv (w, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t ->
        t.regs.(rd) <- Subword.lanes_sub ~lane_bits:w ~width:32 t.regs.(rn) t.regs.(rm);
        t.wn_retired <- t.wn_retired + 1;
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Sqrt (rd, rn) ->
      let rd = idx rd and rn = idx rn in
      fun t ->
        t.regs.(rd) <- isqrt_top ~bits:16 t.regs.(rn);
        t.last_cycles <- 16;
        t.pcv <- next
  | Instr.Sqrt_asp { bits; rd; rn } ->
      let rd = idx rd and rn = idx rn in
      fun t ->
        t.regs.(rd) <- isqrt_top ~bits t.regs.(rn);
        t.wn_retired <- t.wn_retired + 1;
        t.last_cycles <- bits;
        t.pcv <- next
  | Instr.Cmp (rn, rm) ->
      let rn = idx rn and rm = idx rm in
      fun t ->
        set_compare_flags t t.regs.(rn) t.regs.(rm);
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Cmp_imm (rn, imm) ->
      let rn = idx rn in
      fun t ->
        set_compare_flags t t.regs.(rn) imm;
        t.last_cycles <- 1;
        t.pcv <- next
  | Instr.Ldr { width; signed; rd; base; off } ->
      let rd = idx rd and base = idx base in
      let read = reader width ~signed and bytes = access_bytes width in
      fun t ->
        let addr = t.regs.(base) + off in
        t.regs.(rd) <- read t.mem addr;
        t.last_read_addr <- addr;
        t.last_read_bytes <- bytes;
        t.last_cycles <- 2;
        t.pcv <- next
  | Instr.Str { width; rs; base; off } ->
      let rs = idx rs and base = idx base in
      let write = writer width and bytes = access_bytes width in
      fun t ->
        let addr = t.regs.(base) + off in
        write t.mem addr t.regs.(rs);
        t.last_wrote_addr <- addr;
        t.last_wrote_bytes <- bytes;
        t.last_cycles <- 2;
        t.pcv <- next
  | Instr.Ldr_reg { width; signed; rd; base; idx = ix } ->
      let rd = idx rd and base = idx base and ix = idx ix in
      let read = reader width ~signed and bytes = access_bytes width in
      fun t ->
        let addr = t.regs.(base) + t.regs.(ix) in
        t.regs.(rd) <- read t.mem addr;
        t.last_read_addr <- addr;
        t.last_read_bytes <- bytes;
        t.last_cycles <- 2;
        t.pcv <- next
  | Instr.Str_reg { width; rs; base; idx = ix } ->
      let rs = idx rs and base = idx base and ix = idx ix in
      let write = writer width and bytes = access_bytes width in
      fun t ->
        let addr = t.regs.(base) + t.regs.(ix) in
        write t.mem addr t.regs.(rs);
        t.last_wrote_addr <- addr;
        t.last_wrote_bytes <- bytes;
        t.last_cycles <- 2;
        t.pcv <- next
  | Instr.B (c, tgt) -> (
      let taken = Instr.cycles ~taken:true i in
      let fall = Instr.cycles ~taken:false i in
      match c with
      | Cond.Al ->
          fun t ->
            t.last_cycles <- taken;
            t.pcv <- tgt
      | _ ->
          fun t ->
            if holds c t then begin
              t.last_cycles <- taken;
              t.pcv <- tgt
            end
            else begin
              t.last_cycles <- fall;
              t.pcv <- next
            end)
  | Instr.Bl tgt ->
      let lr = Reg.index Reg.lr in
      fun t ->
        t.regs.(lr) <- u32 next;
        t.last_cycles <- 2;
        t.pcv <- tgt
  | Instr.Bx_lr ->
      let lr = Reg.index Reg.lr in
      fun t ->
        t.last_cycles <- 2;
        t.pcv <- t.regs.(lr)
  | Instr.Skm tgt ->
      (* The option cell is built once here, so latching allocates
         nothing per execution. *)
      let latched = Some tgt in
      fun t ->
        t.skim <- latched;
        t.last_skm <- true;
        t.wn_retired <- t.wn_retired + 1;
        t.last_cycles <- 1;
        t.pcv <- next

let predecode ~zero_skip ~memo_table program =
  Array.mapi (compile_op ~zero_skip ~memo_table) program

let create ?(config = default_config) ~program ~mem () =
  let memo_table =
    Option.map (fun entries -> Memo.create ~entries ()) config.memo_entries
  in
  {
    program;
    mem;
    regs = Array.make Reg.count 0;
    pcv = 0;
    fn = false;
    fz = false;
    fc = false;
    fv = false;
    halt = false;
    skim = None;
    memo_table;
    zero_skip = config.zero_skip;
    retired = 0;
    wn_retired = 0;
    cycles = 0;
    steps_left = -1;
    code = predecode ~zero_skip:config.zero_skip ~memo_table program;
    last_pc = -1;
    last_cycles = 0;
    last_read_addr = -1;
    last_read_bytes = 0;
    last_wrote_addr = -1;
    last_wrote_bytes = 0;
    last_memo_hit = false;
    last_zero_skipped = false;
    last_skm = false;
    fused_table = [||];
    blk_reads = [||];
    blocks_built = false;
  }

let program t = t.program
let mem t = t.mem
let pc t = t.pcv
let set_pc t v = t.pcv <- v

let reg t r = t.regs.(Reg.index r)
let set_reg t r v = t.regs.(Reg.index r) <- u32 v

let flags t = { Cond.n = t.fn; z = t.fz; c = t.fc; v = t.fv }

let set_flags t (f : Cond.flags) =
  t.fn <- f.Cond.n;
  t.fz <- f.Cond.z;
  t.fc <- f.Cond.c;
  t.fv <- f.Cond.v

let halted t = t.halt

let skim_target t = t.skim

let take_skim t =
  let s = t.skim in
  t.skim <- None;
  s

let clear_skim t = t.skim <- None

let reset_for_new_task t =
  t.pcv <- 0;
  t.halt <- false;
  t.skim <- None;
  Array.fill t.regs 0 Reg.count 0;
  set_flags t Cond.initial_flags

type access = { addr : int; bytes : int }

type step_result = {
  instr : int Instr.t;
  cycles : int;
  read : access option;
  wrote : access option;
  memo_hit : bool;
  zero_skipped : bool;
}

(* ---------------- the fast path ---------------- *)

let step_fast t =
  if t.halt then failwith "Machine.step: halted";
  let pc = t.pcv in
  if pc < 0 || pc >= Array.length t.code then
    failwith (Printf.sprintf "Machine.step: PC %d out of program" pc);
  t.last_pc <- pc;
  t.last_read_addr <- -1;
  t.last_wrote_addr <- -1;
  t.last_memo_hit <- false;
  t.last_zero_skipped <- false;
  t.last_skm <- false;
  (Array.unsafe_get t.code pc) t;
  t.retired <- t.retired + 1;
  t.cycles <- t.cycles + t.last_cycles;
  if t.steps_left > 0 then t.steps_left <- t.steps_left - 1

let last_pc t = t.last_pc
let last_cycles t = t.last_cycles
let worst_case_cycles = Instr.worst_cycles
let last_read_addr t = t.last_read_addr
let last_read_bytes t = t.last_read_bytes
let last_wrote_addr t = t.last_wrote_addr
let last_wrote_bytes t = t.last_wrote_bytes
let last_memo_hit t = t.last_memo_hit
let last_zero_skipped t = t.last_zero_skipped
let last_was_skm t = t.last_skm

let step t =
  let pc0 = t.pcv in
  step_fast t;
  {
    instr = t.program.(pc0);
    cycles = t.last_cycles;
    read =
      (if t.last_read_addr < 0 then None
       else Some { addr = t.last_read_addr; bytes = t.last_read_bytes });
    wrote =
      (if t.last_wrote_addr < 0 then None
       else Some { addr = t.last_wrote_addr; bytes = t.last_wrote_bytes });
    memo_hit = t.last_memo_hit;
    zero_skipped = t.last_zero_skipped;
  }

(* ---------------- block-compiled execution ---------------- *)

(* Bare closure: the architectural effect of one fused instruction and
   nothing else.  No [pcv] write (the exit pc is static or set by the
   run's terminating branch), no [last_*] scratch, no statistics —
   [exec_block] batches all of those.
   Loads record their effective address into a fixed [blk_reads] slot so
   the executor can replay Clank read-set tracking post-commit.  Only
   instructions [Wn_analysis.Fuse.fusible] accepts reach this compiler;
   multiplies arrive only in the fixed-latency (no memo, no zero-skip)
   configuration.  Register accesses skip the bounds check: [Reg.t] is a
   private int validated to [0 <= i < Reg.count] at construction and the
   register file is always [Reg.count] long. *)
let compile_bare ~ring ~slot (i : int Instr.t) : t -> unit =
  let idx = Reg.index in
  match i with
  | Instr.Nop -> fun _ -> ()
  | Instr.Mov_imm (rd, imm) ->
      let rd = idx rd and imm = u32 imm in
      fun t -> Array.unsafe_set t.regs rd (imm)
  | Instr.Movt (rd, imm) ->
      let rd = idx rd and hi = imm lsl 16 in
      fun t -> Array.unsafe_set t.regs rd (u32 (((Array.unsafe_get t.regs rd) land 0xFFFF) lor hi))
  | Instr.Mov (rd, rn) ->
      let rd = idx rd and rn = idx rn in
      fun t -> Array.unsafe_set t.regs rd ((Array.unsafe_get t.regs rn))
  | Instr.Alu (op, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t -> Array.unsafe_set t.regs rd (u32 (alu_eval op (Array.unsafe_get t.regs rn) (Array.unsafe_get t.regs rm)))
  | Instr.Alu_imm (op, rd, rn, imm) ->
      let rd = idx rd and rn = idx rn in
      fun t -> Array.unsafe_set t.regs rd (u32 (alu_eval op (Array.unsafe_get t.regs rn) imm))
  | Instr.Shift (op, rd, rn, sh) -> (
      let rd = idx rd and rn = idx rn in
      match op with
      | Instr.Lsl -> fun t -> Array.unsafe_set t.regs rd (u32 ((Array.unsafe_get t.regs rn) lsl sh))
      | Instr.Lsr -> fun t -> Array.unsafe_set t.regs rd (u32 ((Array.unsafe_get t.regs rn) lsr sh))
      | Instr.Asr -> fun t -> Array.unsafe_set t.regs rd (u32 (signed32 (Array.unsafe_get t.regs rn) asr sh)))
  | Instr.Mul (rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t -> Array.unsafe_set t.regs rd (u32 ((Array.unsafe_get t.regs rn) * (Array.unsafe_get t.regs rm)))
  | Instr.Mul_asp { bits; signed; rd; rn; shift } ->
      let rd = idx rd and rn = idx rn in
      fun t ->
        let sub_raw = Subword.truncate ~bits (Array.unsafe_get t.regs rn) in
        let multiplicand = signed32 (Array.unsafe_get t.regs rd) in
        let sub = if signed then Subword.to_signed ~bits sub_raw else sub_raw in
        Array.unsafe_set t.regs rd (u32 ((multiplicand * sub) lsl shift))
  | Instr.Add_asv (w, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t ->
        Array.unsafe_set t.regs rd (Subword.lanes_add ~lane_bits:w ~width:32 (Array.unsafe_get t.regs rn) (Array.unsafe_get t.regs rm))
  | Instr.Sub_asv (w, rd, rn, rm) ->
      let rd = idx rd and rn = idx rn and rm = idx rm in
      fun t ->
        Array.unsafe_set t.regs rd (Subword.lanes_sub ~lane_bits:w ~width:32 (Array.unsafe_get t.regs rn) (Array.unsafe_get t.regs rm))
  | Instr.Sqrt (rd, rn) ->
      let rd = idx rd and rn = idx rn in
      fun t -> Array.unsafe_set t.regs rd (isqrt_top ~bits:16 (Array.unsafe_get t.regs rn))
  | Instr.Sqrt_asp { bits; rd; rn } ->
      let rd = idx rd and rn = idx rn in
      fun t -> Array.unsafe_set t.regs rd (isqrt_top ~bits (Array.unsafe_get t.regs rn))
  | Instr.Cmp (rn, rm) ->
      let rn = idx rn and rm = idx rm in
      fun t -> set_compare_flags t (Array.unsafe_get t.regs rn) (Array.unsafe_get t.regs rm)
  | Instr.Cmp_imm (rn, imm) ->
      let rn = idx rn in
      fun t -> set_compare_flags t (Array.unsafe_get t.regs rn) imm
  | Instr.Ldr { width; signed; rd; base; off } ->
      let rd = idx rd and base = idx base in
      let read = reader width ~signed in
      fun t ->
        let addr = (Array.unsafe_get t.regs base) + off in
        Array.unsafe_set t.regs rd (read t.mem addr);
        Array.unsafe_set ring slot addr
  | Instr.Ldr_reg { width; signed; rd; base; idx = ix } ->
      let rd = idx rd and base = idx base and ix = idx ix in
      let read = reader width ~signed in
      fun t ->
        let addr = (Array.unsafe_get t.regs base) + (Array.unsafe_get t.regs ix) in
        Array.unsafe_set t.regs rd (read t.mem addr);
        Array.unsafe_set ring slot addr
  | Instr.Halt | Instr.Str _ | Instr.Str_reg _ | Instr.B _ | Instr.Bl _
  | Instr.Bx_lr | Instr.Skm _ ->
      invalid_arg "Machine.compile_bare: not fusible"

let is_load_instr = function
  | Instr.Ldr _ | Instr.Ldr_reg _ -> true
  | _ -> false

let is_branch_instr = function Instr.B _ -> true | _ -> false

let build_blocks t =
  let memoizable = t.memo_table <> None || t.zero_skip in
  let runs = Wn_analysis.Fuse.plan ~memoizable t.program in
  let table = Array.make (Array.length t.program) None in
  let max_loads =
    List.fold_left
      (fun m (r : Wn_analysis.Fuse.run) -> max m r.Wn_analysis.Fuse.r_loads)
      1 runs
  in
  let ring = Array.make max_loads 0 in
  List.iter
    (fun (r : Wn_analysis.Fuse.run) ->
      let open Wn_analysis.Fuse in
      let costs =
        Array.init r.r_len (fun k ->
            Instr.worst_cycles t.program.(r.r_first + k))
      in
      let slot = ref 0 in
      let read_bytes = ref 0 in
      let code =
        Array.init r.r_len (fun k ->
            let i = t.program.(r.r_first + k) in
            let s = !slot in
            if is_load_instr i then begin
              incr slot;
              (read_bytes :=
                 match i with
                 | Instr.Ldr { width; _ } | Instr.Ldr_reg { width; _ } ->
                     access_bytes width
                 | _ -> !read_bytes)
            end;
            (* The predecoded branch closure already writes nothing
               but [last_cycles] and [pcv]: it is bare as it stands. *)
            if is_branch_instr i then t.code.(r.r_first + k)
            else compile_bare ~ring ~slot:s i)
      in
      let last = t.program.(r.r_first + r.r_len - 1) in
      let last_cost = costs.(r.r_len - 1) in
      let fall_cost = Instr.cycles ~taken:false last in
      let fall_costs =
        if fall_cost = last_cost then costs
        else begin
          let c = Array.copy costs in
          c.(r.r_len - 1) <- fall_cost;
          c
        end
      in
      table.(r.r_first) <-
        Some
          {
            b_first = r.r_first;
            b_len = r.r_len;
            b_cycles = r.r_cycles;
            b_pre_cycles = r.r_cycles - last_cost;
            b_last_cost = last_cost;
            b_branch = is_branch_instr last;
            b_costs = costs;
            b_fall_costs = fall_costs;
            b_loads = r.r_loads;
            b_wn = r.r_wn;
            b_last_is_load = is_load_instr last;
            b_read_bytes = !read_bytes;
            b_code = code;
          })
    runs;
  t.fused_table <- table;
  t.blk_reads <- ring;
  t.blocks_built <- true

let block_at t pc =
  if not t.blocks_built then build_blocks t;
  if pc >= 0 && pc < Array.length t.fused_table then
    Array.unsafe_get t.fused_table pc
  else None

let block_len b = b.b_len
let block_first b = b.b_first
let block_cycles b = b.b_cycles
let block_pre_cycles b = b.b_pre_cycles
let block_costs b = b.b_costs

(* Only a branch closure writes [last_cycles] inside a run, so right
   after [exec_block b] it holds the latency the last instruction paid;
   a fall-through is the only way to pay less than [b_last_cost]. *)
let block_paid_costs t b =
  if t.last_cycles = b.b_last_cost then b.b_costs else b.b_fall_costs

let block_loads b = b.b_loads
let block_wn b = b.b_wn
let block_read_addr t i = t.blk_reads.(i)

let budget_covers t n = t.steps_left < 0 || t.steps_left >= n

(* Execute one fused run in a single call.  Preconditions (the executor
   and [step_block] enforce them): machine not halted, [pcv = b.b_first],
   and the step budget covers the whole run.  Afterwards the machine is
   bit-identical — architectural state, statistics, step budget and the
   [last_*] scratch — to [b_len] successive [step_fast] calls:

   - a branch-terminated run's last closure has already set the exit pc
     and the latency it paid; a straight-line run exits at the next pc
     and its last instruction's static cost.
   - the scratch reflects the run's final instruction, with one
     subtlety inherited from [step_fast]: [last_read_bytes] /
     [last_wrote_bytes] are not reset per step, so they keep the bytes
     of the most recent access *anywhere* before the boundary.  No run
     contains a store, so [last_wrote_bytes] is left untouched;
     [last_read_bytes] is overwritten only if the run loaded at all.
   - an exception from a closure (out-of-bounds load) leaves the batched
     counters not yet applied, mirroring [step_fast]'s partial-commit
     behaviour mid-instruction; both engines only diverge on runs that
     crash, which no lint-clean program does. *)
let exec_block t b =
  let code = b.b_code in
  for i = 0 to b.b_len - 1 do
    (Array.unsafe_get code i) t
  done;
  if not b.b_branch then begin
    t.pcv <- b.b_first + b.b_len;
    t.last_cycles <- b.b_last_cost
  end;
  t.last_pc <- b.b_first + b.b_len - 1;
  t.last_read_addr <-
    (if b.b_last_is_load then Array.unsafe_get t.blk_reads (b.b_loads - 1)
     else -1);
  if b.b_loads > 0 then t.last_read_bytes <- b.b_read_bytes;
  t.last_wrote_addr <- -1;
  t.last_memo_hit <- false;
  t.last_zero_skipped <- false;
  t.last_skm <- false;
  t.retired <- t.retired + b.b_len;
  t.wn_retired <- t.wn_retired + b.b_wn;
  t.cycles <- t.cycles + b.b_pre_cycles + t.last_cycles;
  if t.steps_left > 0 then begin
    let r = t.steps_left - b.b_len in
    t.steps_left <- (if r < 0 then 0 else r)
  end

(* Whole-block step when a fused run starts at the pc and the step
   budget covers it; per-instruction [step_fast] otherwise.  Always
   makes progress by at least one instruction (same failure conditions
   as [step_fast] when halted or out of program). *)
let step_block t =
  if t.halt then step_fast t
  else
    match block_at t t.pcv with
    | Some b when budget_covers t b.b_len -> exec_block t b
    | _ -> step_fast t

(* ---------------- the reference interpreter ---------------- *)

let load t (width : Instr.width) ~signed addr =
  let open Wn_mem in
  match (width, signed) with
  | Instr.Byte, false -> (Memory.read8 t.mem addr, 1)
  | Instr.Byte, true -> (u32 (Memory.read8_signed t.mem addr), 1)
  | Instr.Half, false -> (Memory.read16 t.mem addr, 2)
  | Instr.Half, true -> (u32 (Memory.read16_signed t.mem addr), 2)
  | Instr.Word, _ -> (Memory.read32 t.mem addr, 4)

let store t (width : Instr.width) addr v =
  let open Wn_mem in
  match width with
  | Instr.Byte -> (Memory.write8 t.mem addr v, 1)
  | Instr.Half -> (Memory.write16 t.mem addr v, 2)
  | Instr.Word -> (Memory.write32 t.mem addr v, 4)

(* Multiply through the zero-skip / memoization front end.  Returns the
   raw product and the latency actually paid.  (Kept on the reference
   path; exercises the split lookup/insert Memo API.) *)
let multiply t ~full_cycles a b =
  if t.zero_skip && (a = 0 || b = 0) then (0, 1, false, true)
  else
    match t.memo_table with
    | Some table -> (
        match Memo.lookup table ~a ~b with
        | Some r -> (r, 1, true, false)
        | None ->
            let r = u32 (a * b) in
            Memo.insert table ~a ~b ~result:r;
            (r, full_cycles, false, false))
    | None -> (u32 (a * b), full_cycles, false, false)

(* The original direct interpreter over [int Instr.t], kept verbatim as
   the executable specification: the differential suite steps it and
   [step_fast] in lockstep to prove the predecoded table is
   bit-identical. *)
let step_reference t =
  if t.halt then failwith "Machine.step: halted";
  if t.pcv < 0 || t.pcv >= Array.length t.program then
    failwith (Printf.sprintf "Machine.step: PC %d out of program" t.pcv);
  let i = t.program.(t.pcv) in
  let next = t.pcv + 1 in
  let nothing = (None, None, false, false) in
  let rd_set r v = set_reg t r v in
  let rv r = reg t r in
  let default_cycles = Instr.cycles ~taken:false i in
  let cycles = ref default_cycles in
  let pc' = ref next in
  let effects = ref nothing in
  (match i with
  | Instr.Nop -> ()
  | Instr.Halt -> t.halt <- true
  | Instr.Mov_imm (rd, imm) -> rd_set rd imm
  | Instr.Movt (rd, imm) -> rd_set rd ((rv rd land 0xFFFF) lor (imm lsl 16))
  | Instr.Mov (rd, rn) -> rd_set rd (rv rn)
  | Instr.Alu (op, rd, rn, rm) -> rd_set rd (alu_eval op (rv rn) (rv rm))
  | Instr.Alu_imm (op, rd, rn, imm) -> rd_set rd (alu_eval op (rv rn) imm)
  | Instr.Shift (op, rd, rn, sh) ->
      let v = rv rn in
      let r =
        match op with
        | Instr.Lsl -> v lsl sh
        | Instr.Lsr -> v lsr sh
        | Instr.Asr -> signed32 v asr sh
      in
      rd_set rd r
  | Instr.Mul (rd, rn, rm) ->
      let r, c, hit, zs = multiply t ~full_cycles:16 (rv rn) (rv rm) in
      rd_set rd r;
      cycles := c;
      effects := (None, None, hit, zs)
  | Instr.Mul_asp { bits; signed; rd; rn; shift } ->
      let sub_raw = Subword.truncate ~bits (rv rn) in
      let multiplicand = signed32 (rv rd) in
      let sub = if signed then Subword.to_signed ~bits sub_raw else sub_raw in
      let a = u32 multiplicand and b = u32 sub in
      let _pattern, c, hit, zs = multiply t ~full_cycles:bits a b in
      let product = multiplicand * sub in
      rd_set rd (u32 (product lsl shift));
      cycles := c;
      effects := (None, None, hit, zs)
  | Instr.Add_asv (w, rd, rn, rm) ->
      rd_set rd (Subword.lanes_add ~lane_bits:w ~width:32 (rv rn) (rv rm))
  | Instr.Sub_asv (w, rd, rn, rm) ->
      rd_set rd (Subword.lanes_sub ~lane_bits:w ~width:32 (rv rn) (rv rm))
  | Instr.Sqrt (rd, rn) -> rd_set rd (isqrt_top ~bits:16 (rv rn))
  | Instr.Sqrt_asp { bits; rd; rn } -> rd_set rd (isqrt_top ~bits (rv rn))
  | Instr.Cmp (rn, rm) -> set_compare_flags t (rv rn) (rv rm)
  | Instr.Cmp_imm (rn, imm) -> set_compare_flags t (rv rn) imm
  | Instr.Ldr { width; signed; rd; base; off } ->
      let addr = rv base + off in
      let v, bytes = load t width ~signed addr in
      rd_set rd v;
      effects := (Some { addr; bytes }, None, false, false)
  | Instr.Str { width; rs; base; off } ->
      let addr = rv base + off in
      let (), bytes = store t width addr (rv rs) in
      effects := (None, Some { addr; bytes }, false, false)
  | Instr.Ldr_reg { width; signed; rd; base; idx } ->
      let addr = rv base + rv idx in
      let v, bytes = load t width ~signed addr in
      rd_set rd v;
      effects := (Some { addr; bytes }, None, false, false)
  | Instr.Str_reg { width; rs; base; idx } ->
      let addr = rv base + rv idx in
      let (), bytes = store t width addr (rv rs) in
      effects := (None, Some { addr; bytes }, false, false)
  | Instr.B (c, tgt) ->
      if holds c t then begin
        pc' := tgt;
        cycles := Instr.cycles ~taken:true i
      end
  | Instr.Bl tgt ->
      set_reg t Reg.lr next;
      pc' := tgt
  | Instr.Bx_lr -> pc' := rv Reg.lr
  | Instr.Skm tgt -> t.skim <- Some tgt);
  t.pcv <- !pc';
  t.retired <- t.retired + 1;
  if Instr.is_wn_extension i then t.wn_retired <- t.wn_retired + 1;
  t.cycles <- t.cycles + !cycles;
  if t.steps_left > 0 then t.steps_left <- t.steps_left - 1;
  let read, wrote, memo_hit, zero_skipped = !effects in
  { instr = i; cycles = !cycles; read; wrote; memo_hit; zero_skipped }

(* ---------------- whole-state snapshot ---------------- *)

(* An opaque capture of everything mutable: architectural state
   (registers, flags, PC, halt latch, SKM register, data memory),
   statistics (retired/wn_retired/cycles, memory access counters, memo
   table contents and counters), the step budget, and the [last_*]
   effect scratch.  The predecode table and the program are immutable
   and shared, so a snapshot is cheap (two array copies plus the memory
   image) and [restore] into any machine built from the same program
   and configuration is bit-exact under both [step_fast] and
   [step_reference].

   The memory is captured as a [Memory.image].  By default the capture
   is a delta: pages unwritten since this memory's previous capture are
   structurally shared with it, so a run that snapshots every K
   instructions pays O(pages dirtied per interval) per frame instead of
   O(memory).  [~full:true] forces an isolated copy.  Either way the
   image is complete and immutable — restore never walks a chain. *)
type snapshot = {
  s_regs : int array;
  s_pc : int;
  s_fn : bool;
  s_fz : bool;
  s_fc : bool;
  s_fv : bool;
  s_halt : bool;
  s_skim : int option;
  s_retired : int;
  s_wn_retired : int;
  s_cycles : int;
  s_steps_left : int;
  s_mem : Wn_mem.Memory.image;
  s_mem_reads : int;
  s_mem_writes : int;
  s_memo : Memo.snapshot option;
  s_zero_skip : bool;
  s_program_len : int;
  s_last_pc : int;
  s_last_cycles : int;
  s_last_read_addr : int;
  s_last_read_bytes : int;
  s_last_wrote_addr : int;
  s_last_wrote_bytes : int;
  s_last_memo_hit : bool;
  s_last_zero_skipped : bool;
  s_last_skm : bool;
}

let snapshot ?(full = false) t =
  let reads, writes = Wn_mem.Memory.read_stats t.mem in
  {
    s_regs = Array.copy t.regs;
    s_pc = t.pcv;
    s_fn = t.fn;
    s_fz = t.fz;
    s_fc = t.fc;
    s_fv = t.fv;
    s_halt = t.halt;
    s_skim = t.skim;
    s_retired = t.retired;
    s_wn_retired = t.wn_retired;
    s_cycles = t.cycles;
    s_steps_left = t.steps_left;
    s_mem =
      (if full then Wn_mem.Memory.capture_full t.mem
       else Wn_mem.Memory.capture t.mem);
    s_mem_reads = reads;
    s_mem_writes = writes;
    s_memo = Option.map Memo.snapshot t.memo_table;
    s_zero_skip = t.zero_skip;
    s_program_len = Array.length t.program;
    s_last_pc = t.last_pc;
    s_last_cycles = t.last_cycles;
    s_last_read_addr = t.last_read_addr;
    s_last_read_bytes = t.last_read_bytes;
    s_last_wrote_addr = t.last_wrote_addr;
    s_last_wrote_bytes = t.last_wrote_bytes;
    s_last_memo_hit = t.last_memo_hit;
    s_last_zero_skipped = t.last_zero_skipped;
    s_last_skm = t.last_skm;
  }

let restore t s =
  if
    Array.length t.program <> s.s_program_len
    || t.zero_skip <> s.s_zero_skip
    || Wn_mem.Memory.image_size s.s_mem <> Wn_mem.Memory.size t.mem
  then invalid_arg "Machine.restore: configuration mismatch";
  (match (t.memo_table, s.s_memo) with
  | None, None -> ()
  | Some table, Some ms -> Memo.restore table ms
  | _ -> invalid_arg "Machine.restore: configuration mismatch");
  Array.blit s.s_regs 0 t.regs 0 Reg.count;
  t.pcv <- s.s_pc;
  t.fn <- s.s_fn;
  t.fz <- s.s_fz;
  t.fc <- s.s_fc;
  t.fv <- s.s_fv;
  t.halt <- s.s_halt;
  t.skim <- s.s_skim;
  t.retired <- s.s_retired;
  t.wn_retired <- s.s_wn_retired;
  t.cycles <- s.s_cycles;
  t.steps_left <- s.s_steps_left;
  Wn_mem.Memory.restore_image t.mem s.s_mem;
  Wn_mem.Memory.set_stats t.mem ~reads:s.s_mem_reads ~writes:s.s_mem_writes;
  t.last_pc <- s.s_last_pc;
  t.last_cycles <- s.s_last_cycles;
  t.last_read_addr <- s.s_last_read_addr;
  t.last_read_bytes <- s.s_last_read_bytes;
  t.last_wrote_addr <- s.s_last_wrote_addr;
  t.last_wrote_bytes <- s.s_last_wrote_bytes;
  t.last_memo_hit <- s.s_last_memo_hit;
  t.last_zero_skipped <- s.s_last_zero_skipped;
  t.last_skm <- s.s_last_skm

let snapshot_retired s = s.s_retired

let snapshot_pc s = s.s_pc

(* Monomorphic int-array compare: the rejoin probe calls this on the
   register file once per candidate per step, where the polymorphic
   [=] walk is measurably hot. *)
let int_arrays_equal a b =
  Array.length a = Array.length b
  &&
  let n = Array.length a in
  let rec go i = i >= n || (Array.unsafe_get a i = Array.unsafe_get b i && go (i + 1)) in
  go 0

(* Architectural comparison: does the machine's forward-determining
   state bit-match the snapshot's?  Statistics (retired, cycles, memory
   access counts, memo hit rates) and the last-effect scratch fields are
   excluded — they record the past, not the future.  Register compare
   first: it fails fastest (a loop counter differs on almost every
   probe), leaving the memory compare for near-matches only. *)
let matches_state t s =
  Array.length t.program = s.s_program_len
  && t.zero_skip = s.s_zero_skip
  && t.pcv = s.s_pc
  && t.halt = s.s_halt
  && t.fn = s.s_fn && t.fz = s.s_fz && t.fc = s.s_fc && t.fv = s.s_fv
  && (match (t.skim, s.s_skim) with
     | None, None -> true
     | Some a, Some b -> a = b
     | _ -> false)
  && t.steps_left = s.s_steps_left
  && int_arrays_equal t.regs s.s_regs
  && (match (t.memo_table, s.s_memo) with
     | None, None -> true
     | Some table, Some ms -> Memo.state_equal table ms
     | _ -> false)
  && Wn_mem.Memory.matches_image t.mem s.s_mem

type register_file = { saved_regs : int array; saved_flags : Cond.flags; saved_pc : int }

let capture_registers t =
  { saved_regs = Array.copy t.regs; saved_flags = flags t; saved_pc = t.pcv }

let restore_registers t rf =
  Array.blit rf.saved_regs 0 t.regs 0 Reg.count;
  set_flags t rf.saved_flags;
  t.pcv <- rf.saved_pc

let scrub_volatile t =
  Array.fill t.regs 0 Reg.count 0;
  set_flags t Cond.initial_flags;
  t.pcv <- 0

let set_step_budget t budget =
  match budget with
  | None -> t.steps_left <- -1
  | Some n ->
      if n < 0 then invalid_arg "Machine.set_step_budget";
      t.steps_left <- n

let step_budget t = if t.steps_left < 0 then None else Some t.steps_left

let budget_exhausted t = t.steps_left = 0

let instructions_retired (t : t) = t.retired
let wn_instructions t = t.wn_retired
let cycles_executed (t : t) = t.cycles
let memo t = t.memo_table

let reset_stats t =
  t.retired <- 0;
  t.wn_retired <- 0;
  t.cycles <- 0;
  Option.iter Memo.clear t.memo_table

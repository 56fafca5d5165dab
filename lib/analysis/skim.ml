open Wn_isa

(* Blocks from which [b] is reachable, [b] included. *)
let blocks_reaching (cfg : Cfg.t) b =
  let n = Array.length cfg.blocks in
  let seen = Array.make n false in
  let q = Queue.create () in
  Queue.add b q;
  while not (Queue.is_empty q) do
    let x = Queue.pop q in
    if not seen.(x) then begin
      seen.(x) <- true;
      List.iter (fun p -> if not seen.(p) then Queue.add p q) cfg.pred.(x)
    end
  done;
  seen

let store_reaches cfg pc =
  let b = cfg.Cfg.block_of.(pc) in
  let reaching = blocks_reaching cfg b in
  let block_has_store bi upto =
    let blk = cfg.Cfg.blocks.(bi) in
    let last = min blk.Cfg.last upto in
    let found = ref false in
    for q = blk.Cfg.first to last do
      if Instr.writes_memory cfg.Cfg.program.(q) then found := true
    done;
    !found
  in
  let any = ref false in
  Array.iteri
    (fun bi r ->
      if r then
        (* within the skim's own block only the prefix counts *)
        let upto = if bi = b then pc - 1 else max_int in
        if block_has_store bi upto then any := true)
    reaching;
  !any

let sym_of_access pc ~store accesses =
  List.filter_map
    (fun (a : Addr.access) ->
      if a.acc_pc = pc && a.acc_store = store then a.acc_sym else None)
    accesses

let check (cfg : Cfg.t) regflow ~accesses =
  let n = Array.length cfg.program in
  let diags = ref [] in
  let add d = diags := d :: !diags in
  List.iter
    (fun (pc, target) ->
      if target < 0 || target >= n then
        add
          (Diag.errorf ~pc ~rule:"skim-target"
             "skim target %d is outside the program" target)
      else if target <= pc then
        add
          (Diag.errorf ~pc ~rule:"skim-backward"
             "skim target %d precedes the skim point; a restore there \
              would re-run committed work"
             target)
      else begin
        if Cfg.in_loop cfg pc then
          add
            (Diag.warningf ~pc ~rule:"skim-in-loop"
               "skim is re-latched every loop iteration; each latch \
                commits whatever partial state the iteration left");
        if not (store_reaches cfg pc) then
          add
            (Diag.errorf ~pc ~rule:"skim-no-commit"
               "no store can execute before this skim; the latched \
                state contains no committed result");
        let live = Regflow.live_in regflow target in
        let flags = Regflow.flags_live_in regflow target in
        if live <> [] || flags then
          add
            (Diag.errorf ~pc ~rule:"skim-target-live"
               "%s live into skim target %d, but a skim restore scrubs \
                all volatile state"
               (String.concat ", "
                  (List.map Reg.to_string live
                  @ if flags then [ "flags" ] else []))
               target);
        (* A target inside a loop whose body reloads what the skipped
           code stores observes replicas that may never have run. *)
        let target_loops =
          List.filter
            (fun (h, _) -> List.mem h cfg.loops_of.(target))
            cfg.loops
        in
        if target_loops <> [] then begin
          let skipped =
            if pc + 1 < n then
              Cfg.reachable_between cfg ~src:(pc + 1) ~stop:target
            else []
          in
          let skipped_writes =
            List.concat_map
              (fun q -> sym_of_access q ~store:true accesses)
              skipped
            |> List.sort_uniq String.compare
          in
          let reread =
            List.concat_map
              (fun (_, pcs) ->
                List.concat_map
                  (fun q -> sym_of_access q ~store:false accesses)
                  pcs)
              target_loops
            |> List.sort_uniq String.compare
            |> List.filter (fun s -> List.mem s skipped_writes)
          in
          if reread <> [] then
            add
              (Diag.errorf ~pc ~rule:"skim-target-rereads"
                 "skim target %d sits in a loop that re-reads %s, which \
                  the skipped code writes"
                 target
                 (String.concat ", " reread))
        end
      end)
    cfg.skims;
  List.rev !diags

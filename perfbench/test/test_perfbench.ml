(* Unit tests for the benchmark's order statistics, span self times and
   metric naming. *)

open Wn_perfbench

let failures = ref 0

let check name cond =
  if not cond then begin
    incr failures;
    Printf.printf "FAIL %s\n" name
  end

let close a b = Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs b)

(* Expected values are Python's statistics.quantiles(xs, n=4). *)
let test_quartiles () =
  List.iter
    (fun (xs, (e1, e2, e3)) ->
      let q1, q2, q3 = Stats.quartiles (Array.of_list xs) in
      check
        (Printf.sprintf "quartiles of %d samples" (List.length xs))
        (close q1 e1 && close q2 e2 && close q3 e3))
    [
      ([ 1.; 2. ], (0.75, 1.5, 2.25));
      ([ 3.; 1.; 2. ], (1.0, 2.0, 3.0));
      ([ 1.; 2.; 3.; 4. ], (1.25, 2.5, 3.75));
      ([ 5.; 1.; 4.; 2.; 3. ], (1.5, 3.0, 4.5));
      ([ 10.; 20.; 30.; 40.; 50.; 60.; 70.; 80.; 90.; 100. ], (27.5, 55.0, 82.5));
      ([ 2.5; 0.5; 1.0; 9.0; 4.0; 3.0; 7.5 ], (1.0, 3.0, 7.5));
    ];
  check "quartiles need two samples"
    (match Stats.quartiles [| 1.0 |] with _ -> false | exception Invalid_argument _ -> true)

let test_percentiles () =
  let xs = Array.init 101 float_of_int in
  check "p0" (close (Stats.percentile xs 0.0) 0.0);
  check "p50" (close (Stats.percentile xs 50.0) 50.0);
  check "p99" (close (Stats.percentile xs 99.0) 99.0);
  check "p100" (close (Stats.percentile xs 100.0) 100.0);
  check "interpolates" (close (Stats.percentile [| 4.; 1.; 3.; 2. |] 50.0) 2.5);
  check "p99 of 4 samples" (close (Stats.percentile [| 1.; 2.; 3.; 4. |] 99.0) 3.97);
  check "single sample" (close (Stats.percentile [| 7.0 |] 99.0) 7.0);
  check "median is p50" (close (Stats.median [| 9.; 1.; 5. |]) 5.0);
  check "empty rejected"
    (match Stats.percentile [||] 50.0 with _ -> false | exception Invalid_argument _ -> true)

let mk id parent layer start stop =
  { Span.id; parent; name = layer; layer; unit_id = -1; start; stop; words = 0.0; count = 0 }

let test_self_time () =
  (* root [0,10] > a [1,4] > a1 [2,3]; root > b [5,9] *)
  let spans =
    [ mk 0 (-1) "bench" 0. 10.; mk 1 0 "a" 1. 4.; mk 2 1 "b" 2. 3.; mk 3 0 "b" 5. 9. ]
  in
  let selfs = List.map (fun (s, t) -> (s.Span.id, t)) (Span.self_times spans) in
  check "root self" (close (List.assoc 0 selfs) 3.0);
  check "inner self" (close (List.assoc 1 selfs) 2.0);
  check "leaf self" (close (List.assoc 2 selfs) 1.0);
  let layers = Span.layer_self spans in
  check "layer b sums two spans" (close (List.assoc "b" layers) 5.0);
  check "layer order" (List.map fst layers = [ "bench"; "a"; "b" ]);
  check "self times sum to root time"
    (close (List.fold_left (fun acc (_, t) -> acc +. t) 0.0 layers) (Span.root_time spans))

let test_recorder () =
  let tr = Span.create ~enabled:true in
  let v =
    Span.span tr ~layer:"bench" ~name:"root" ~unit_id:7 (fun () ->
        Span.span tr ~layer:"x" ~name:"child" (fun () ->
            Span.count tr 5;
            42))
  in
  check "value passes through" (v = 42);
  (match Span.spans tr with
  | [ root; child ] ->
      check "parent link" (child.Span.parent = root.Span.id && root.Span.parent = -1);
      check "unit inherited" (child.Span.unit_id = 7);
      check "count on innermost" (child.Span.count = 5 && root.Span.count = 0);
      check "nested interval" (root.Span.start <= child.Span.start && child.Span.stop <= root.Span.stop)
  | _ -> check "two spans recorded" false);
  (match Span.span tr ~layer:"x" ~name:"raises" (fun () -> failwith "boom") with
  | () -> check "exception propagates" false
  | exception Failure _ -> check "raising span closed" (List.length (Span.spans tr) = 3));
  let off = Span.create ~enabled:false in
  check "disabled runs the call" (Span.span off ~layer:"x" ~name:"y" (fun () -> 1) = 1);
  check "disabled records nothing" (Span.spans off = [])

let test_names () =
  List.iter (fun n -> check ("valid " ^ n) (Metric.valid_name n))
    [ "setup_s"; "runtime.clank.ns_per_insn"; "9lives"; String.make 64 'a'; "a-b" ];
  List.iter (fun n -> check ("invalid " ^ n) (not (Metric.valid_name n)))
    [ ""; "_x"; ".x"; "a b"; "a/b"; String.make 65 'a'; "ns\xc2\xb5" ];
  List.iter (fun u -> check ("valid unit " ^ u) (Metric.valid_unit u)) [ "ms"; "1/s"; "%"; "words/insn" ];
  check "unit too long" (not (Metric.valid_unit (String.make 17 'a')));
  List.iter
    (fun (n, u, _) ->
      check ("catalogue name " ^ n) (Metric.valid_name n);
      check ("catalogue unit " ^ u) (Metric.valid_unit u))
    Metric.catalogue;
  let names = List.map (fun (n, _, _) -> n) Metric.catalogue in
  check "catalogue names unique" (List.length (List.sort_uniq compare names) = List.length names);
  check "setup_s is end-to-end in seconds"
    (List.mem ("setup_s", "s", Metric.End_to_end) Metric.catalogue)

let test_result_line () =
  check "result line"
    (Metric.result_line ~correct:true ~attempted:3 ~failed:0 [ ("setup_s", 0.5) ]
    = {|{"correct": true, "attempted": 3, "failed": 0, "metrics": {"setup_s": {"value": 0.5, "unit": "s"}}}|});
  let rejects metrics =
    match Metric.result_line ~correct:true ~attempted:1 ~failed:0 metrics with
    | _ -> false
    | exception Invalid_argument _ -> true
  in
  check "rejects nan" (rejects [ ("setup_s", Float.nan) ]);
  check "rejects repeats" (rejects [ ("setup_s", 1.0); ("setup_s", 1.0) ]);
  check "rejects unknown" (rejects [ ("nope", 1.0) ])

let () =
  test_quartiles ();
  test_percentiles ();
  test_self_time ();
  test_recorder ();
  test_names ();
  test_result_line ();
  if !failures > 0 then exit 1;
  print_endline "perfbench tests: ok"

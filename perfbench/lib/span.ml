type span = {
  id : int;
  parent : int;
  name : string;
  layer : string;
  unit_id : int;
  start : float;
  stop : float;
  words : float;
  count : int;
}

type frame = { f_id : int; f_unit : int; mutable f_count : int }

type t = {
  enabled : bool;
  origin : float;
  mutable next_id : int;
  mutable stack : frame list;
  mutable closed : span list;
}

let create ~enabled =
  { enabled; origin = Unix.gettimeofday (); next_id = 0; stack = []; closed = [] }

let now t = Unix.gettimeofday () -. t.origin

let span t ~layer ~name ?unit_id f =
  if not t.enabled then f ()
  else begin
    let id = t.next_id in
    t.next_id <- id + 1;
    let parent, inherited =
      match t.stack with [] -> (-1, -1) | fr :: _ -> (fr.f_id, fr.f_unit)
    in
    let frame =
      { f_id = id; f_unit = Option.value unit_id ~default:inherited; f_count = 0 }
    in
    t.stack <- frame :: t.stack;
    let w0 = Gc.minor_words () in
    let start = now t in
    let finish () =
      let stop = now t in
      let words = Gc.minor_words () -. w0 in
      t.stack <- List.tl t.stack;
      t.closed <-
        {
          id;
          parent;
          name;
          layer;
          unit_id = frame.f_unit;
          start;
          stop;
          words;
          count = frame.f_count;
        }
        :: t.closed
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

let count t n =
  match t.stack with fr :: _ -> fr.f_count <- fr.f_count + n | [] -> ()

let spans t = List.sort (fun a b -> compare a.id b.id) t.closed
let duration s = s.stop -. s.start

let self_times spans =
  let covered = Hashtbl.create 1024 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        Hashtbl.replace covered s.parent
          (duration s +. Option.value (Hashtbl.find_opt covered s.parent) ~default:0.0))
    spans;
  List.map
    (fun s ->
      (s, duration s -. Option.value (Hashtbl.find_opt covered s.id) ~default:0.0))
    spans

let layer_self spans =
  let order = ref [] in
  let totals = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
      match Hashtbl.find_opt totals s.layer with
      | Some v -> Hashtbl.replace totals s.layer (v +. self)
      | None ->
          order := s.layer :: !order;
          Hashtbl.replace totals s.layer self)
    (self_times spans);
  List.rev_map (fun l -> (l, Hashtbl.find totals l)) !order

let root_time spans =
  List.fold_left
    (fun acc s -> if s.parent < 0 then acc +. duration s else acc)
    0.0 spans

let to_csv oc spans =
  output_string oc "id,parent,unit,layer,name,start_s,stop_s,minor_words,count\n";
  List.iter
    (fun s ->
      Printf.fprintf oc "%d,%d,%d,%s,%s,%.9f,%.9f,%.0f,%d\n" s.id s.parent
        s.unit_id s.layer s.name s.start s.stop s.words s.count)
    spans

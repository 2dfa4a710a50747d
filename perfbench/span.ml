(* Host-time spans recorded by the benchmark around its calls into each
   layer.  While the recorder is off, [with_] is a plain function call;
   while it is on, each span is kept in memory with its parent and
   mirrored into an [Ise_telemetry.Trace], written as Chrome trace JSON
   at exit.  Timestamps are wall-clock microseconds since [create]. *)

type span = {
  id : int;
  parent : int option;
  cat : string;  (** the layer the span times *)
  name : string;
  start_us : int;
  stop_us : int;
}

type t = {
  mutable on : bool;
  t0 : float;
  trace : Ise_telemetry.Trace.t;
  mutable next_id : int;
  mutable stack : int list;  (** ids of the open spans, innermost first *)
  mutable closed : span list;
}

let create () =
  {
    on = false;
    t0 = Unix.gettimeofday ();
    trace = Ise_telemetry.Trace.create ();
    next_id = 1;
    stack = [];
    closed = [];
  }

let set_on t on = t.on <- on
let us_of_time t time = int_of_float ((time -. t.t0) *. 1e6)

let fresh_id t =
  let id = t.next_id in
  t.next_id <- id + 1;
  id

let add t ~cat ~name ~id ~parent ~start_us ~stop_us =
  let ctx =
    {
      Ise_telemetry.Trace.trace_id = "perfbench";
      span_id = string_of_int id;
      parent_span_id = Option.map string_of_int parent;
    }
  in
  Ise_telemetry.Trace.span_begin t.trace ~cat ~ctx ~name ~tid:0 start_us;
  Ise_telemetry.Trace.span_end t.trace ~cat ~ctx ~name ~tid:0 stop_us;
  t.closed <- { id; parent; cat; name; start_us; stop_us } :: t.closed

let innermost t = match t.stack with p :: _ -> Some p | [] -> None

(** [with_ t ~cat ~name f] runs [f] inside a span, child of the
    innermost open span. *)
let with_ t ~cat ~name f =
  if not t.on then f ()
  else begin
    let id = fresh_id t and parent = innermost t in
    let start = Unix.gettimeofday () in
    t.stack <- id :: t.stack;
    Fun.protect f ~finally:(fun () ->
        t.stack <- List.tl t.stack;
        add t ~cat ~name ~id ~parent ~start_us:(us_of_time t start)
          ~stop_us:(us_of_time t (Unix.gettimeofday ())))
  end

(** Records an interval that has already ended, from two
    [Unix.gettimeofday] stamps taken in a callback, as a child of the
    innermost open span. *)
let record t ~cat ~name ~start ~stop =
  if t.on then
    add t ~cat ~name ~id:(fresh_id t) ~parent:(innermost t)
      ~start_us:(us_of_time t start) ~stop_us:(us_of_time t stop)

let spans t = t.closed
let seconds s = float_of_int (s.stop_us - s.start_us) /. 1e6

(** The outermost ancestor of every span, by id. *)
let roots t =
  let by_id = Hashtbl.create 256 in
  List.iter (fun s -> Hashtbl.replace by_id s.id s) t.closed;
  let rec root s =
    match Option.bind s.parent (Hashtbl.find_opt by_id) with
    | None -> s
    | Some p -> root p
  in
  root

(** Self time per layer, in seconds, over the spans [keep] selects: each
    span's duration minus the part of its interval that its direct
    children cover, summed by [cat]. *)
let self_seconds ~keep t =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      Option.iter (fun p -> Hashtbl.add children p (s.start_us, s.stop_us)) s.parent)
    t.closed;
  let covered s =
    let ivs =
      Hashtbl.find_all children s.id
      |> List.map (fun (a, b) -> (max a s.start_us, min b s.stop_us))
      |> List.filter (fun (a, b) -> b > a)
      |> List.sort compare
    in
    fst
      (List.fold_left
         (fun (acc, reach) (a, b) ->
           if b <= reach then (acc, reach) else (acc + (b - max a reach), b))
         (0, s.start_us) ivs)
  in
  let by_cat = Hashtbl.create 16 in
  List.iter
    (fun s ->
      if keep s then begin
        let self = s.stop_us - s.start_us - covered s in
        let prev = Option.value ~default:0 (Hashtbl.find_opt by_cat s.cat) in
        Hashtbl.replace by_cat s.cat (prev + self)
      end)
    t.closed;
  Hashtbl.fold (fun cat us acc -> (cat, float_of_int us /. 1e6) :: acc) by_cat []

let write_chrome t path =
  let oc = open_out path in
  output_string oc
    (Ise_telemetry.Json.to_string (Ise_telemetry.Trace.to_chrome_json t.trace));
  output_char oc '\n';
  close_out oc

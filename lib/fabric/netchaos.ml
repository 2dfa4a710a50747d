open Ise_util
module Codec = Ise_pool.Codec

(* ------------------------------------------------------------------ *)
(* profiles                                                            *)

type profile = {
  name : string;
  doc : string;
  drop_pct : int;
  delay_pct : int;
  delay_ms_max : int;
  dup_pct : int;
  reorder_pct : int;
  corrupt_pct : int;
  corrupt_bytes_max : int;
  reset_pct : int;
  stall_pct : int;
  stall_ms : int;
}

let calm =
  {
    name = "calm";
    doc = "no injection at all (proxy plumbing baseline)";
    drop_pct = 0;
    delay_pct = 0;
    delay_ms_max = 0;
    dup_pct = 0;
    reorder_pct = 0;
    corrupt_pct = 0;
    corrupt_bytes_max = 0;
    reset_pct = 0;
    stall_pct = 0;
    stall_ms = 0;
  }

let drop = { calm with name = "drop"; doc = "frames vanish"; drop_pct = 8 }

let delay =
  { calm with
    name = "delay";
    doc = "frames held up to 40 ms (head-of-line, order kept)";
    delay_pct = 30;
    delay_ms_max = 40 }

let dup =
  { calm with
    name = "dup";
    doc = "frames delivered twice";
    dup_pct = 20 }

let reorder =
  { calm with
    name = "reorder";
    doc = "a frame swaps places with the next one";
    reorder_pct = 25 }

let corrupt =
  { calm with
    name = "corrupt";
    doc = "payload bytes flipped (framing left intact)";
    corrupt_pct = 6;
    corrupt_bytes_max = 4 }

let reset =
  { calm with
    name = "reset";
    doc = "connections torn down mid-stream";
    reset_pct = 3 }

let stall =
  { calm with
    name = "stall";
    doc = "fresh connections frozen before their first byte";
    stall_pct = 35;
    stall_ms = 900 }

let storm =
  {
    name = "storm";
    doc = "every wire fault at once";
    drop_pct = 5;
    delay_pct = 15;
    delay_ms_max = 25;
    dup_pct = 8;
    reorder_pct = 10;
    corrupt_pct = 3;
    corrupt_bytes_max = 4;
    reset_pct = 2;
    stall_pct = 15;
    stall_ms = 700;
  }

let all = [ drop; delay; dup; reorder; corrupt; reset; stall; storm ]
let named n = List.find_opt (fun p -> p.name = n) (calm :: all)

(* ------------------------------------------------------------------ *)
(* frame mutation generators (shared with the codec-hostility tests)   *)

module Mutate = struct
  type kind = Flip | Truncate | Extend | Skew_version | Skew_proto | Oversize

  let kinds = [| Flip; Truncate; Extend; Skew_version; Skew_proto; Oversize |]

  let flip_bytes rng ~lo s n =
    let b = Bytes.of_string s in
    let len = Bytes.length b in
    if len > lo then
      for _ = 1 to n do
        let i = lo + Rng.int rng (len - lo) in
        Bytes.set b i
          (Char.chr (Char.code (Bytes.get b i) lxor (1 + Rng.int rng 255)))
      done;
    Bytes.to_string b

  (* Flip payload bytes only: the frame still parses, so corruption is
     caught by the payload layer (Wire's digest envelope), not by
     framing — the nastier case. *)
  let corrupt_payload rng ~max_bytes frame =
    flip_bytes rng ~lo:Codec.header_bytes frame (1 + Rng.int rng (max 1 max_bytes))

  let apply rng kind frame =
    let len = String.length frame in
    match kind with
    | Flip -> flip_bytes rng ~lo:0 frame (1 + Rng.int rng 4)
    | Truncate -> String.sub frame 0 (Rng.int rng (max 1 len))
    | Extend -> frame ^ String.init (1 + Rng.int rng 32)
                          (fun _ -> Char.chr (Rng.int rng 256))
    | Skew_version ->
      if len < 5 then frame
      else begin
        let b = Bytes.of_string frame in
        Bytes.set b 4 (Char.chr (Rng.int rng 256));
        Bytes.to_string b
      end
    | Skew_proto ->
      if len < 6 then frame
      else begin
        let b = Bytes.of_string frame in
        Bytes.set b 5 (Char.chr (Rng.int rng 256));
        Bytes.to_string b
      end
    | Oversize ->
      (* claim an absurd payload length *)
      if len < Codec.header_bytes then frame
      else begin
        let b = Bytes.of_string frame in
        Bytes.set b 6 '\x7f';
        Bytes.set b 7 (Char.chr (Rng.int rng 256));
        Bytes.to_string b
      end

  let mutate rng frame = apply rng (Rng.choose rng kinds) frame
end

(* ------------------------------------------------------------------ *)
(* the injector                                                        *)

type t = {
  pf : profile;
  rng_drop : Rng.t;
  rng_delay : Rng.t;
  rng_dup : Rng.t;
  rng_reorder : Rng.t;
  rng_corrupt : Rng.t;
  rng_reset : Rng.t;
  rng_stall : Rng.t;
  mutable frames : int;
  mutable drops : int;
  mutable delays : int;
  mutable dups : int;
  mutable reorders : int;
  mutable corruptions : int;
  mutable resets : int;
  mutable stalls : int;
  mutable conns : int;
}

let create ~seed ~profile =
  let root = Rng.create seed in
  {
    pf = profile;
    rng_drop = Rng.split root;
    rng_delay = Rng.split root;
    rng_dup = Rng.split root;
    rng_reorder = Rng.split root;
    rng_corrupt = Rng.split root;
    rng_reset = Rng.split root;
    rng_stall = Rng.split root;
    frames = 0;
    drops = 0;
    delays = 0;
    dups = 0;
    reorders = 0;
    corruptions = 0;
    resets = 0;
    stalls = 0;
    conns = 0;
  }

let profile t = t.pf

let counts t =
  [ ("netchaos/conns", t.conns);
    ("netchaos/frames", t.frames);
    ("netchaos/drops", t.drops);
    ("netchaos/delays", t.delays);
    ("netchaos/dups", t.dups);
    ("netchaos/reorders", t.reorders);
    ("netchaos/corruptions", t.corruptions);
    ("netchaos/resets", t.resets);
    ("netchaos/stalls", t.stalls) ]

let hit rng pct = pct > 0 && Rng.int rng 100 < pct

type action =
  | Pass
  | Drop
  | Delay of float  (* seconds *)
  | Duplicate
  | Reorder
  | Corrupt of string  (* mutated frame bytes *)
  | Reset

(* One decision per frame, first category hit wins — same shape as
   Ise_chaos.Plane: every category draws from its own split stream, so
   enabling one fault class never perturbs another's schedule. *)
let frame_action t frame =
  t.frames <- t.frames + 1;
  if hit t.rng_reset t.pf.reset_pct then begin
    t.resets <- t.resets + 1;
    Reset
  end
  else if hit t.rng_drop t.pf.drop_pct then begin
    t.drops <- t.drops + 1;
    Drop
  end
  else if hit t.rng_corrupt t.pf.corrupt_pct then begin
    t.corruptions <- t.corruptions + 1;
    Corrupt
      (Mutate.corrupt_payload t.rng_corrupt
         ~max_bytes:t.pf.corrupt_bytes_max frame)
  end
  else if hit t.rng_dup t.pf.dup_pct then begin
    t.dups <- t.dups + 1;
    Duplicate
  end
  else if hit t.rng_reorder t.pf.reorder_pct then begin
    t.reorders <- t.reorders + 1;
    Reorder
  end
  else if hit t.rng_delay t.pf.delay_pct then begin
    t.delays <- t.delays + 1;
    Delay (float_of_int (1 + Rng.int t.rng_delay (max 1 t.pf.delay_ms_max))
           /. 1000.)
  end
  else Pass

let conn_stall t =
  t.conns <- t.conns + 1;
  if hit t.rng_stall t.pf.stall_pct then begin
    t.stalls <- t.stalls + 1;
    Some (float_of_int t.pf.stall_ms /. 1000.)
  end
  else None

(* ------------------------------------------------------------------ *)
(* the fd proxy                                                        *)

(* One direction of one proxied connection: raw bytes in, frames
   peeled, per-frame actions applied, released in queue order. *)
type dir = {
  d_from : Unix.file_descr;
  d_to : Unix.file_descr;
  mutable d_buf : Bytes.t;
  mutable d_len : int;
  mutable d_out : (float * string) list;  (* release time, frame bytes *)
  mutable d_held : (float * string) option;  (* reorder victim + deadline *)
  mutable d_raw : bool;  (* unparseable stream: forward verbatim *)
  mutable d_eof : bool;
}

type pair = {
  p_a : dir;  (* client -> upstream *)
  p_b : dir;  (* upstream -> client *)
  mutable p_stalled_until : float;
  mutable p_dead : bool;
}

type proxy = {
  nc : t;
  listen_fd : Unix.file_descr;
  listen_path : string;
  upstream_path : string;
  max_payload : int;
  log : string -> unit;
  mutable pairs : pair list;
  mutable stop : bool;
}

let create_proxy ?(max_payload = Codec.default_max_payload)
    ?(log = fun (_ : string) -> ()) ~listen ~upstream nc =
  (try Unix.unlink listen with Unix.Unix_error _ -> ());
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.set_close_on_exec fd;
  Unix.bind fd (Unix.ADDR_UNIX listen);
  Unix.listen fd 16;
  { nc; listen_fd = fd; listen_path = listen; upstream_path = upstream;
    max_payload; log; pairs = []; stop = false }

let close_pair px pair =
  if not pair.p_dead then begin
    pair.p_dead <- true;
    List.iter
      (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ())
      [ pair.p_a.d_from; pair.p_a.d_to ];
    px.pairs <- List.filter (fun p -> p != pair) px.pairs
  end

let enqueue d now frame =
  d.d_out <- d.d_out @ [ (now, frame) ]

(* Apply the injector's verdict for one parsed frame. *)
let apply_action px pair d now frame =
  (* a held reorder victim is released right after the frame that
     overtook it *)
  let release_held () =
    match d.d_held with
    | Some (_, held) ->
      d.d_held <- None;
      enqueue d now held
    | None -> ()
  in
  match frame_action px.nc frame with
  | Pass ->
    enqueue d now frame;
    release_held ()
  | Drop -> release_held ()
  | Delay s ->
    enqueue d (now +. s) frame;
    release_held ()
  | Duplicate ->
    enqueue d now frame;
    enqueue d now frame;
    release_held ()
  | Corrupt bytes ->
    enqueue d now bytes;
    release_held ()
  | Reorder -> (
    (* hold this frame until the next one passes it — or for 50 ms,
       whichever comes first, so a lone frame is only delayed *)
    match d.d_held with
    | Some (_, held) ->
      (* two reorders back to back: swap the two held frames *)
      d.d_held <- None;
      enqueue d now frame;
      enqueue d now held
    | None -> d.d_held <- Some (now +. 0.05, frame))
  | Reset -> close_pair px pair

let pump_frames px pair d now =
  if d.d_raw then begin
    (* stream stopped parsing (shouldn't happen with our endpoints):
       forward verbatim, no injection *)
    if d.d_len > 0 then begin
      enqueue d now (Bytes.sub_string d.d_buf 0 d.d_len);
      d.d_len <- 0
    end
  end
  else begin
    let continue = ref true in
    while !continue && not pair.p_dead do
      match
        Codec.decode ~max_payload:px.max_payload ~proto:Wire.version d.d_buf
          ~pos:0 ~len:d.d_len
      with
      | Codec.Need_more -> continue := false
      | Codec.Corrupt _ -> d.d_raw <- true; continue := false
      | Codec.Frame { consumed; _ } ->
        let frame = Bytes.sub_string d.d_buf 0 consumed in
        Bytes.blit d.d_buf consumed d.d_buf 0 (d.d_len - consumed);
        d.d_len <- d.d_len - consumed;
        apply_action px pair d now frame
    done
  end

let proxy_chunk = Bytes.create 65536

let dir_readable px pair d now =
  match Unix.read d.d_from proxy_chunk 0 (Bytes.length proxy_chunk) with
  | 0 ->
    d.d_eof <- true;
    pump_frames px pair d now;
    (* flush what we owe, then half-close; tear down when both sides
       are done *)
    if d.d_out = [] && d.d_held = None then begin
      (try Unix.shutdown d.d_to Unix.SHUTDOWN_SEND
       with Unix.Unix_error _ -> ())
    end;
    if pair.p_a.d_eof && pair.p_b.d_eof then close_pair px pair
  | n ->
    if d.d_len + n > Bytes.length d.d_buf then begin
      let cap = max (d.d_len + n) (2 * Bytes.length d.d_buf) in
      let bigger = Bytes.create cap in
      Bytes.blit d.d_buf 0 bigger 0 d.d_len;
      d.d_buf <- bigger
    end;
    Bytes.blit proxy_chunk 0 d.d_buf d.d_len n;
    d.d_len <- d.d_len + n;
    pump_frames px pair d now
  | exception Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
    close_pair px pair
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let write_all fd s =
  let n = String.length s in
  let off = ref 0 in
  while !off < n do
    let w = Unix.write_substring fd s !off (n - !off) in
    off := !off + w
  done

let flush_dir px pair d now =
  (* overdue reorder victim with nothing overtaking it: release *)
  (match d.d_held with
   | Some (deadline, held) when now >= deadline ->
     d.d_held <- None;
     enqueue d now held
   | _ -> ());
  let continue = ref true in
  while !continue && not pair.p_dead do
    match d.d_out with
    | (release, frame) :: rest when release <= now -> (
      match write_all d.d_to frame with
      | () -> d.d_out <- rest
      | exception (Unix.Unix_error _ | Sys_error _) -> close_pair px pair)
    | _ -> continue := false
  done;
  if (not pair.p_dead) && d.d_eof && d.d_out = [] && d.d_held = None then
    (try Unix.shutdown d.d_to Unix.SHUTDOWN_SEND
     with Unix.Unix_error _ -> ())

let accept_conn px now =
  match Unix.accept px.listen_fd with
  | client, _ -> (
    Unix.set_close_on_exec client;
    let up = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    Unix.set_close_on_exec up;
    match Unix.connect up (Unix.ADDR_UNIX px.upstream_path) with
    | () ->
      let dir from_ to_ =
        { d_from = from_; d_to = to_; d_buf = Bytes.create 8192; d_len = 0;
          d_out = []; d_held = None; d_raw = false; d_eof = false }
      in
      let stalled_until =
        match conn_stall px.nc with
        | Some s ->
          px.log (Printf.sprintf "stalling new connection for %.0f ms"
                    (s *. 1000.));
          now +. s
        | None -> 0.
      in
      px.pairs <-
        { p_a = dir client up; p_b = dir up client;
          p_stalled_until = stalled_until; p_dead = false }
        :: px.pairs
    | exception Unix.Unix_error _ ->
      px.log "upstream connect failed; dropping client";
      (try Unix.close client with Unix.Unix_error _ -> ());
      (try Unix.close up with Unix.Unix_error _ -> ()))
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()

let proxy_step px =
  let now = Unix.gettimeofday () in
  let read_fds =
    px.listen_fd
    :: List.concat_map
         (fun pair ->
           if pair.p_dead || now < pair.p_stalled_until then []
           else
             (if pair.p_a.d_eof then [] else [ pair.p_a.d_from ])
             @ if pair.p_b.d_eof then [] else [ pair.p_b.d_from ])
         px.pairs
  in
  (match Unix.select read_fds [] [] 0.02 with
   | readable, _, _ ->
     let now = Unix.gettimeofday () in
     List.iter
       (fun fd ->
         if fd = px.listen_fd then accept_conn px now
         else
           List.iter
             (fun pair ->
               if not pair.p_dead then begin
                 if fd = pair.p_a.d_from && not pair.p_a.d_eof then
                   dir_readable px pair pair.p_a now
                 else if fd = pair.p_b.d_from && not pair.p_b.d_eof then
                   dir_readable px pair pair.p_b now
               end)
             px.pairs)
       readable
   | exception Unix.Unix_error (Unix.EINTR, _, _) -> ());
  let now = Unix.gettimeofday () in
  List.iter
    (fun pair ->
      if (not pair.p_dead) && now >= pair.p_stalled_until then begin
        flush_dir px pair pair.p_a now;
        if not pair.p_dead then flush_dir px pair pair.p_b now
      end)
    px.pairs

let stop_proxy px = px.stop <- true

let run_proxy px =
  (try Sys.set_signal Sys.sigpipe Sys.Signal_ignore
   with Invalid_argument _ -> ());
  px.log
    (Printf.sprintf "netchaos proxy %s -> %s (profile %s)" px.listen_path
       px.upstream_path px.nc.pf.name);
  while not px.stop do
    proxy_step px
  done;
  List.iter (fun pair -> close_pair px pair) px.pairs;
  (try Unix.close px.listen_fd with Unix.Unix_error _ -> ());
  (try Unix.unlink px.listen_path with Unix.Unix_error _ -> ())

let spawn ?max_payload ?log ~listen ~upstream ~seed ~profile () =
  match Unix.fork () with
  | 0 ->
    (* proxy child: any exit path must be _exit so the parent's at_exit
       machinery never runs twice *)
    (try
       let px =
         create_proxy ?max_payload ?log ~listen ~upstream
           (create ~seed ~profile)
       in
       let stop = Sys.Signal_handle (fun _ -> stop_proxy px) in
       Sys.set_signal Sys.sigterm stop;
       Sys.set_signal Sys.sigint stop;
       run_proxy px
     with _ -> ());
    Unix._exit 0
  | pid -> pid

let stop_spawned pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
      end
      else begin
        ignore (Unix.select [] [] [] 0.01);
        wait ()
      end
    | _ -> ()
    | exception Unix.Unix_error _ -> ()
  in
  wait ()

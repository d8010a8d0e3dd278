(* Named metrics: counters, gauges and fixed-bucket latency histograms.

   Metrics are registered once by name (re-registering returns the existing
   instrument; a kind clash is a programming error) and live in a global
   CAS-list registry so [snapshot] can serialize everything.  All state is
   [Atomic], so updates are cheap and safe from any domain.

   Updates at instrumentation sites are gated on [Obs.on ()] by the caller
   (see e.g. lib/core/benefit.ml), keeping the disabled path to one atomic
   load.  The instruments themselves do not check the flag: tests and the
   bench harness update them directly. *)

type kind = Counter | Gauge | Histogram

type counter = int Atomic.t

type gauge = float Atomic.t

(* Cumulative histogram state: [buckets.(i)] counts observations
   <= [bounds.(i)]; the final cell counts overflows.  [sum] accumulates in
   integer microseconds so it can live in an [Atomic.t] without a CAS loop
   on floats. *)
type histogram = {
  bounds : float array;  (* upper bounds, strictly increasing, in us *)
  buckets : int Atomic.t array;  (* length = Array.length bounds + 1 *)
  count : int Atomic.t;
  sum_us : int Atomic.t;
}

type instrument =
  | I_counter of counter
  | I_gauge of gauge
  | I_histogram of histogram

let kind_of = function
  | I_counter _ -> Counter
  | I_gauge _ -> Gauge
  | I_histogram _ -> Histogram

let kind_name = function
  | Counter -> "counter"
  | Gauge -> "gauge"
  | Histogram -> "histogram"

let registry : (string * instrument) list Atomic.t = Atomic.make []

(* Register-once: the winner of the CAS race publishes [fresh ()]; everyone
   else adopts whatever is already there under that name. *)
let rec intern name fresh =
  let cur = Atomic.get registry in
  match List.assoc_opt name cur with
  | Some existing -> existing
  | None ->
      let inst = fresh () in
      if Atomic.compare_and_set registry cur ((name, inst) :: cur) then inst
      else intern name fresh

let kind_clash name want got =
  invalid_arg
    (Printf.sprintf "Metrics: %S already registered as a %s, requested as a %s"
       name (kind_name got) (kind_name want))

let counter name =
  match intern name (fun () -> I_counter (Atomic.make 0)) with
  | I_counter c -> c
  | other -> kind_clash name Counter (kind_of other)

let gauge name =
  match intern name (fun () -> I_gauge (Atomic.make 0.0)) with
  | I_gauge g -> g
  | other -> kind_clash name Gauge (kind_of other)

(* Default bounds suit what-if optimizer call latencies: 1us .. 1s.  A
   function (not a toplevel array literal) so each histogram owns its copy. *)
let default_bounds () =
  [| 1.; 2.; 5.; 10.; 20.; 50.; 100.; 200.; 500.; 1e3; 2e3; 5e3; 1e4; 1e5; 1e6 |]

let fresh_histogram bounds () =
  I_histogram
    {
      bounds;
      buckets = Array.init (Array.length bounds + 1) (fun _ -> Atomic.make 0);
      count = Atomic.make 0;
      sum_us = Atomic.make 0;
    }

let histogram ?bounds_us name =
  let bounds =
    match bounds_us with Some b -> Array.copy b | None -> default_bounds ()
  in
  match intern name (fresh_histogram bounds) with
  | I_histogram h -> h
  | other -> kind_clash name Histogram (kind_of other)

(* A toplevel [lazy] is not domain-safe: two domains forcing it at once
   raise [CamlinternalLazy.Undefined].  Racing [force]s here may both run
   [make]; registration is once per name, so both get the same instrument. *)
type 'a once = { make : unit -> 'a; cell : 'a option Atomic.t }

let once make = { make; cell = Atomic.make None }

let force h =
  match Atomic.get h.cell with
  | Some m -> m
  | None ->
      let m = h.make () in
      Atomic.set h.cell (Some m);
      m

let incr c = Atomic.incr c
let add c n = ignore (Atomic.fetch_and_add c n)
let value c = Atomic.get c

let set g v = Atomic.set g v
let get g = Atomic.get g

let observe_us h us =
  let rec bucket i =
    if i >= Array.length h.bounds then i
    else if us <= h.bounds.(i) then i
    else bucket (i + 1)
  in
  ignore (Atomic.fetch_and_add h.buckets.(bucket 0) 1);
  Atomic.incr h.count;
  ignore (Atomic.fetch_and_add h.sum_us (int_of_float us))

let observe_s h s = observe_us h (s *. 1e6)
let observe = observe_us

(* ------------------------------------------------------------- snapshot -- *)

type snapshot_value =
  | Counter_v of int
  | Gauge_v of float
  | Histogram_v of { count : int; sum_us : int; buckets : (float * int) list }
      (* (upper bound in us, cumulative-free bucket count); the overflow
         bucket is reported with bound [infinity] *)

let snapshot () =
  let entries =
    List.map
      (fun (name, inst) ->
        let v =
          (match inst with
          | I_counter c -> Counter_v (Atomic.get c)
          | I_gauge g -> Gauge_v (Atomic.get g)
          | I_histogram h ->
              let buckets =
                List.init
                  (Array.length h.buckets)
                  (fun i ->
                    let bound =
                      if i < Array.length h.bounds then h.bounds.(i)
                      else infinity
                    in
                    (bound, Atomic.get h.buckets.(i)))
              in
              Histogram_v
                {
                  count = Atomic.get h.count;
                  sum_us = Atomic.get h.sum_us;
                  buckets;
                })
        in
        (name, v))
      (Atomic.get registry)
  in
  List.sort (fun (a, _) (b, _) -> compare a b) entries

let json_escape s =
  let b = Buffer.create (String.length s) in
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.contents b

let bound_to_json b =
  if Float.is_integer b && Float.abs b < 1e15 then
    Printf.sprintf "%.0f" b
  else Printf.sprintf "%g" b

(* One JSON object per metric per line, so fixtures can be scrubbed and
   diffed line-by-line. *)
let to_json entries =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\"metrics\":[\n";
  List.iteri
    (fun i (name, v) ->
      if i > 0 then Buffer.add_string b ",\n";
      (match v with
      | Counter_v n ->
          Buffer.add_string b
            (Printf.sprintf "{\"name\":\"%s\",\"type\":\"counter\",\"value\":%d}"
               (json_escape name) n)
      | Gauge_v g ->
          Buffer.add_string b
            (Printf.sprintf "{\"name\":\"%s\",\"type\":\"gauge\",\"value\":%g}"
               (json_escape name) g)
      | Histogram_v { count; sum_us; buckets } ->
          Buffer.add_string b
            (Printf.sprintf
               "{\"name\":\"%s\",\"type\":\"histogram\",\"count\":%d,\"sum_us\":%d,\"buckets\":["
               (json_escape name) count sum_us);
          List.iteri
            (fun j (bound, n) ->
              if j > 0 then Buffer.add_char b ',';
              if Float.is_finite bound then
                Buffer.add_string b
                  (Printf.sprintf "{\"le_us\":%s,\"n\":%d}" (bound_to_json bound) n)
              else Buffer.add_string b (Printf.sprintf "{\"le_us\":\"inf\",\"n\":%d}" n))
            buckets;
          Buffer.add_string b "]}"))
    entries;
  Buffer.add_string b "\n]}\n";
  Buffer.contents b

(* Zero every registered instrument (tests and the bench harness isolate
   exhibits with this); registration survives, values reset. *)
let reset_all () =
  List.iter
    (fun (_, inst) ->
      match inst with
      | I_counter c -> Atomic.set c 0
      | I_gauge g -> Atomic.set g 0.0
      | I_histogram h ->
          Array.iter (fun b -> Atomic.set b 0) h.buckets;
          Atomic.set h.count 0;
          Atomic.set h.sum_us 0)
    (Atomic.get registry)

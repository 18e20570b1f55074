(* Rows, tables and catalog recording for the benchmark harness.

   An experiment states each result once, as a cell: the value, its
   column text (with the paper's value beside it in "sim (paper)"
   columns) and, when the value is gated, its catalog metric.  A row
   adds the catalog params of its parameter point.  [table] prints rows
   as an aligned stdout table, records their gated cells in the catalog
   and keeps a markdown copy for `bench doc`, so the three cannot drift
   apart. *)

module Cat = Vobs.Catalog
module Json = Vobs.Json

let printf = Format.printf

let section title = printf "@.== %s ==@.@." title

let note fmt = Format.kasprintf (fun s -> printf "%s@." s) fmt

(* --- cells and rows ------------------------------------------------- *)

type cell = {
  text : string option;  (* column text; [None]: recorded, not shown *)
  gate : (string * Cat.metric) option;  (* catalog metric name and value *)
  param : (string * Json.t) option;  (* a param shown as a column *)
}

type row = { params : (string * Json.t) list; cells : cell list }

let row params cells = { params; cells }
let pi k v = (k, Json.Int v)
let ps k v = (k, Json.Str v)
let text s = { text = Some s; gate = None; param = None }
let hide c = { c with text = None }

(* A parameter column: shown, and one of its row's catalog params. *)
let key ?(fmt = format_of_string "%d") name v =
  { (text (Printf.sprintf fmt v)) with param = Some (pi name v) }

let skey name s = { (text s) with param = Some (ps name s) }

let gated gate metric = Option.map (fun name -> (name, metric)) gate

(* A float rendered with [fmt]; [paper] makes it a "sim (paper)" cell,
   [gate] names its catalog metric. *)
let num ?(fmt = format_of_string "%.2f") ?paper ?gate ?(units = "") ?better
    ?wall v =
  let s = Printf.sprintf fmt v in
  {
    text =
      Some
        (match paper with
        | None -> s
        | Some p -> Printf.sprintf "%s (%.2f)" s p);
    gate = gated gate (Cat.metric ~units ?better ?wall v);
    param = None;
  }

let msf ?fmt ?paper ?gate ?better v =
  num ?fmt ?paper ?gate ~units:"ms" ?better v

let ms ?fmt ?paper ?gate ?better ns =
  msf ?fmt ?paper ?gate ?better (Vsim.Time.to_float_ms ns)

let rate ?gate v = num ~fmt:"%.1f" ?gate ~units:"per_s" ~better:Cat.Higher v

let count ?gate n =
  { (text (string_of_int n)) with
    gate = gated gate (Cat.metric ~units:"count" (float_of_int n)) }

(* A fraction, shown as a percentage. *)
let pct ~fmt ?gate v =
  { (num ?gate ~units:"frac" v) with
    text = Some (Printf.sprintf fmt (100.0 *. v)) }

(* --- the catalog ---------------------------------------------------- *)
(* Every experiment runs under [run ~bench], which names its catalog
   cells.  The harness (main.ml) collects [cells ()] into a BENCH_*.json
   catalog and diffs it against the committed baseline — see
   doc/BENCHMARKS.md. *)

let bench = ref ""
let recorded : Cat.cell list ref = ref []

let cells () = List.rev !recorded
let cell_count () = List.length !recorded

let run ~bench:name f =
  bench := name;
  f ()

(* One catalog cell per parameter point: values gated at a point already
   recorded join its cell, replacing any of the same name. *)
let record_row r =
  match List.filter_map (fun c -> c.gate) r.cells with
  | [] -> ()
  | metrics ->
      let params = List.filter_map (fun c -> c.param) r.cells @ r.params in
      let c = Cat.cell ~bench:!bench ~params metrics in
      let same x = Cat.key x = Cat.key c in
      let join (x : Cat.cell) =
        let kept =
          List.filter (fun (n, _) -> not (List.mem_assoc n metrics)) x.metrics
        in
        Cat.cell ~bench:!bench ~params ?digest:x.digest (kept @ metrics)
      in
      if List.exists same !recorded then
        recorded := List.map (fun x -> if same x then join x else x) !recorded
      else recorded := c :: !recorded

(* Record cells that no table shows. *)
let record params cells = record_row (row params cells)

(* Stamp a metrics-registry digest onto every cell recorded after the
   first [since] (a [cell_count] taken before the experiment ran). *)
let stamp_digest ~since digest =
  let total = List.length !recorded in
  recorded :=
    List.mapi
      (fun i c ->
        if i < total - since then { c with Cat.digest = Some digest } else c)
      !recorded

(* --- tables --------------------------------------------------------- *)

let markdown : string list ref = ref []

let md_row cells = "| " ^ String.concat " | " cells ^ " |\n"

(* Print rows with aligned columns (first left, the rest right), record
   their gated cells in row order, and keep the markdown form. *)
let table ~header rows =
  List.iter record_row rows;
  let shown =
    List.map (fun r -> List.filter_map (fun c -> c.text) r.cells) rows
  in
  let widths =
    List.fold_left
      (List.map2 (fun w cell -> max w (String.length cell)))
      (List.map String.length header) shown
  in
  let print_row row =
    List.iteri
      (fun c (w, cell) ->
        if c = 0 then printf "  %-*s" w cell else printf "  %*s" w cell)
      (List.combine widths row);
    printf "@."
  in
  print_row header;
  print_row (List.map (fun w -> String.make w '-') widths);
  List.iter print_row shown;
  printf "@.";
  markdown :=
    String.concat ""
      (md_row header
      :: md_row (List.mapi (fun c _ -> if c = 0 then "---" else "--:") header)
      :: List.map md_row shown)
    :: !markdown

(* Run [f] with stdout discarded. *)
let quietly f =
  let old = Format.pp_get_formatter_out_functions Format.std_formatter () in
  Format.pp_set_formatter_out_functions Format.std_formatter
    { old with
      Format.out_string = (fun _ _ _ -> ());
      out_flush = (fun () -> ()) };
  Fun.protect
    ~finally:(fun () ->
      Format.pp_set_formatter_out_functions Format.std_formatter old)
    f

(* The markdown form of every table [f] prints, in order; stdout is
   discarded. *)
let tables f =
  markdown := [];
  quietly f;
  List.rev !markdown

(* --- wall-clock isolation ------------------------------------------- *)
(* All wall-clock measurement in the bench suite goes through [timed],
   and all printing of wall-clock values goes through [wall_note], which
   writes to stderr.  Stdout therefore stays a pure function of the seed,
   so CI's run-twice byte comparison keeps working even though rates are
   measured and recorded (as [wall] catalog metrics). *)

let timed f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let wall_note fmt =
  Format.kasprintf (fun s -> Format.eprintf "%s@." s) fmt

(* A wall-clock rate: recorded, never shown. *)
let wall_rate ~gate v =
  hide (num ~gate ~units:"per_s" ~better:Cat.Higher ~wall:true v)

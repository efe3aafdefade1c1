(* Figure-regeneration harness: one target per figure of the paper
   (Figures 2 and 13 are diagrams), plus design ablations.

   Usage:
     dune exec bench/main.exe                 -- all figures
     dune exec bench/main.exe -- --figure 11  -- one figure
     dune exec bench/main.exe -- --fast       -- reduced grids/reps
     dune exec bench/main.exe -- --ablations  -- ablations only
     (figures 101-105 are extension studies beyond the paper)
     dune exec bench/main.exe -- --out DIR    -- CSV output directory *)

let figures : (int * string * (unit -> unit)) list =
  [
    (1, "RSE coder throughput", Fig01.run);
    (3, "layered FEC, h=2", Fig03.run);
    (4, "layered FEC, h=7", Fig03.run_fig4);
    (5, "layered vs integrated", Fig05.run);
    (6, "integrated, finite parities", Fig05.run_fig6);
    (7, "integrated vs R", Fig07.run);
    (8, "integrated vs p", Fig07.run_fig8);
    (9, "heterogeneous, no FEC", Fig09.run);
    (10, "heterogeneous, integrated", Fig09.run_fig10);
    (11, "shared loss, layered", Fig11.run);
    (12, "shared loss, integrated", Fig11.run_fig12);
    (14, "burst length distribution", Fig14.run);
    (15, "burst loss, layered", Fig15.run);
    (16, "burst loss, integrated", Fig15.run_fig16);
    (17, "processing rates", Fig17.run);
    (18, "throughput comparison", Fig17.run_fig18);
    (101, "ext: N1 vs N2 vs NP", Extensions.run_e1);
    (102, "ext: completion latency", Extensions.run_e2);
    (103, "ext: NAKs vs slot size", Extensions.run_e3);
    (104, "ext: FEC carousel", Extensions.run_e4);
    (105, "ext: hierarchy vs flat", Extensions.run_e5);
  ]

let () =
  let selected = ref [] in
  let ablations = ref false in
  let only_ablations = ref false in
  let figure n =
    if List.exists (fun (m, _, _) -> m = n) figures then selected := n :: !selected
    else
      raise
        (Arg.Bad
           (Printf.sprintf "no figure %d (figures: %s)" n
              (String.concat ", " (List.map (fun (n, _, _) -> string_of_int n) figures))))
  in
  Harness.parse [ Out "bench/out"; Jobs ]
    ~extra:
      [
        ("--fast", Arg.Set Harness.smoke, " reduced grids and repetitions");
        ("--figure", Arg.Int figure, "N run figure N only (repeatable)");
        ("--ablations", Arg.Set only_ablations, " ablations only");
        ("--with-ablations", Arg.Set ablations, " figures, then ablations");
      ];
  let start = Sys.time () in
  if not !only_ablations then begin
    let to_run =
      if !selected = [] then figures
      else List.filter (fun (n, _, _) -> List.mem n !selected) figures
    in
    List.iter (fun (_, _, run) -> run ()) to_run
  end;
  if !ablations || !only_ablations then Ablations.run ();
  Printf.printf "\ndone in %.1f s (cpu)\n" (Sys.time () -. start)

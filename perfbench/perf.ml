(* Entry point of the benchmark program, driven by run.py:

     perf.exe gen --workload W --seed N --scale F --work DIR
       writes the seeded inputs into DIR: W.xml and the DOM-baseline
       oracle W.oracle (in-process workloads), or the saved indexes
       the server preloads (serve-mixed);

     perf.exe run --workload W --seed N --scale F --seconds S
                  --trace 0|1 --work DIR --out FILE [--port P]
       measures one workload and writes its results as JSON to FILE
       (and, traced, the spans to FILE.spans). *)

let () =
  let args = Array.to_list Sys.argv in
  let cmd = match args with _ :: c :: _ -> c | _ -> "" in
  let opt name default =
    let rec find = function
      | k :: v :: _ when k = "--" ^ name -> v
      | _ :: rest -> find rest
      | [] -> default
    in
    find args
  in
  let wl = opt "workload" "" in
  let seed = int_of_string (opt "seed" "1") in
  let scale = float_of_string (opt "scale" "1") in
  let seconds = float_of_string (opt "seconds" "10") in
  let trace = opt "trace" "0" = "1" in
  let work = opt "work" "." in
  let out = opt "out" "result.json" in
  let input ext = Filename.concat work (wl ^ ext) in
  match (cmd, wl) with
  | "gen", "serve-mixed" -> Serve.prep ~seed ~scale ~work
  | "gen", _ ->
    let b = Work.battery wl in
    let xml = Work.generate ~seed ~scale b.Work.corpus b.size in
    Work.write_file (input ".xml") xml;
    Work.write_oracle ~path:(input ".oracle") ~xml b
  | "run", "serve-mixed" ->
    Serve.run ~seed ~seconds ~trace ~port:(int_of_string (opt "port" "0")) ~work ~out
  | "run", _ ->
    Inproc.run ~wl ~seed ~seconds ~trace ~xml_path:(input ".xml") ~oracle:(input ".oracle") ~work ~out
  | _ ->
    prerr_endline "usage: perf.exe (gen|run) --workload W [options]";
    exit 2

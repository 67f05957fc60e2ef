(* Workload definitions: the seeded corpora and the query batteries.

   The batteries are the paper's (X01-X17 of Fig. 9, M01-M11 of
   Fig. 14, W01-W05 of Fig. 16) plus the structured-log queries the
   backend comparison uses; they are restated here so the benchmark
   does not depend on the paper-figure harness under bench/. *)

open Sxsi_xml

type mode = Count | Select | Materialize

let mode_name = function Count -> "count" | Select -> "select" | Materialize -> "materialize"

type battery = {
  corpus : string;  (* generator name, see [generate] *)
  size : int;       (* generator size at scale 1 *)
  backend : Document.backend option;  (* None: the program's default *)
  word_index : bool;  (* plug the word index in as [ftcontains] *)
  queries : (string * string) list;
}

(* Materialize skips queries with more results than this (X14-X17), as
   the paper-figure harness does. *)
let materialize_limit = 200_000

let xmark_queries =
  [
    ("X01", "/site/regions");
    ("X02", "/site/regions/*/item");
    ("X03", "/site/closed_auctions/closed_auction/annotation/description/text/keyword");
    ("X04", "//listitem//keyword");
    ("X05", "/site/closed_auctions/closed_auction[annotation/description/text/keyword]/date");
    ("X06", "/site/closed_auctions/closed_auction[.//keyword]/date");
    ("X07", "/site/people/person[profile/gender and profile/age]/name");
    ("X08", "/site/people/person[phone or homepage]/name");
    ("X09", "/site/people/person[address and (phone or homepage) and (creditcard or profile)]/name");
    ("X10", "//listitem[not(.//keyword/emph)]//parlist");
    ("X11", "//listitem[(.//keyword or .//emph) and (.//emph or .//bold)]/parlist");
    ("X12", "//people[.//person[not(address)] and .//person[not(watches)]]/person[watches]");
    ("X13", "/*[.//*]");
    ("X14", "//*");
    ("X15", "//*//*");
    ("X16", "//*//*//*");
    ("X17", "//*//*//*//*");
  ]

let medline_queries =
  [
    ("M01", "//Article[.//AbstractText[contains(., \"foot\") or contains(., \"feet\")]]");
    ("M02", "//Article[.//AbstractText[contains(., \"plus\")]]");
    ("M03", "//Article[.//AbstractText[contains(., \"plus\") or contains(., \"for\")]]");
    ("M04", "//Article[.//AbstractText[contains(., \"plus\") and not(contains(., \"for\"))]]");
    ("M05", "//MedlineCitation/Article/AuthorList/Author[./LastName[starts-with(., \"Bar\")]]");
    ("M06", "//*[.//LastName[contains(., \"Nguyen\")]]");
    ("M07", "//*//AbstractText[contains(., \"epididymis\")]");
    ("M08", "//*[.//PublicationType[ends-with(., \"Article\")]]");
    ("M09", "//MedlineCitation[.//Country[contains(., \"AUSTRALIA\")]]");
    ("M10", "//MedlineCitation[contains(., \"blood cell\")]");
    ("M11", "//*/*[contains(., \"1999\")]");
    ("W01", "//Article[.//AbstractText[ftcontains(., 'blood sample')]]");
    ("W02", "//Article[.//AbstractText[ftcontains(., 'various types of')]]");
    ("W03",
     "//Article[.//AbstractText[ftcontains(., 'various types of') and ftcontains(., 'immune cells')]]");
    ("W04", "//Article[.//AbstractText[ftcontains(., 'of the bone marrow')]]");
    ("W05", "//Article[.//AbstractText[ftcontains(., 'cell') and not(ftcontains(., 'blood'))]]");
  ]

let logs_queries =
  [
    ("L01", "/log/entry");
    ("L02", "//entry[@severity]/msg");
    ("L03", "//entry//frame");
    ("L04", "/log/entry/latency");
    ("L05", "//kv[@key]");
  ]

let all_modes = [ Count; Select; Materialize ]

let battery = function
  | "xmark-tree" ->
    { corpus = "xmark"; size = 6000; backend = None; word_index = false; queries = xmark_queries }
  | "medline-text" ->
    (* 2000 citations (2.7 MB), not the paper's 8000: at 8000, M11
       alone takes 4 s a pass and most pairs get one or two rounds in a
       run, too few to be steady on a 2-core host *)
    { corpus = "medline"; size = 2000; backend = None; word_index = true; queries = medline_queries }
  | "logs-grammar" ->
    (* sized so one grammar-backend pass over L01-L05 stays well under
       a second on a 2-core host *)
    { corpus = "logs"; size = 3000; backend = Some `Grammar; word_index = false; queries = logs_queries }
  | w -> invalid_arg ("unknown in-process workload: " ^ w)

let scaled scale n = max 1 (int_of_float (float_of_int n *. scale))

(* Every corpus is a pure function of (generator, size, seed). *)
let generate ~seed ~scale corpus size =
  let n = scaled scale size in
  match corpus with
  | "xmark" -> Sxsi_datagen.Xmark.generate ~seed ~scale:n ()
  | "medline" -> Sxsi_datagen.Medline.generate ~seed ~citations:n ()
  | "logs" -> Sxsi_datagen.Logs.generate ~seed ~entries:n ()
  | c -> invalid_arg ("unknown corpus: " ^ c)

(* The word index plugged in as [ftcontains], the way the paper's
   §6.6.2 experiment does it. *)
let ft_funs widx : Sxsi_core.Run.text_funs =
 fun key ->
  match String.index_opt key ':' with
  | Some i when String.sub key 0 i = "ftcontains" ->
    let phrase = String.sub key (i + 1) (String.length key - i - 1) in
    Some
      {
        Sxsi_core.Run.cp_match = (fun s -> Sxsi_wordindex.Word_index.matches_text widx phrase s);
        cp_texts = Some (fun () -> Sxsi_wordindex.Word_index.contains_phrase widx phrase);
      }
  | _ -> None

let ft_dom_funs () =
  let scratch = Sxsi_wordindex.Word_index.build [| "" |] in
  fun key ->
    match String.index_opt key ':' with
    | Some i when String.sub key 0 i = "ftcontains" ->
      let phrase = String.sub key (i + 1) (String.length key - i - 1) in
      Some
        (fun node ->
          Sxsi_wordindex.Word_index.matches_text scratch phrase
            (Sxsi_baseline.Dom.string_value node))
    | _ -> None

(* Answers are compared by count and by MD5 digests of the preorder
   list and of the serialized results, so oracle files stay small. *)
let digest_ints a =
  let b = Buffer.create (8 * Array.length a) in
  Array.iter
    (fun x ->
      Buffer.add_string b (string_of_int x);
      Buffer.add_char b ',')
    a;
  Digest.to_hex (Digest.string (Buffer.contents b))

let digest_string s = Digest.to_hex (Digest.string s)

type expect = { e_count : int; e_select : string; e_materialize : string }

(* The DOM-baseline oracle: one line per query, [id count select-md5
   materialize-md5] ("-" when materialize is skipped). *)
let write_oracle ~path ~xml (b : battery) =
  let dom = Sxsi_baseline.Dom.of_xml xml in
  let funs = if b.word_index then ft_dom_funs () else fun _ -> None in
  let oc = open_out path in
  List.iter
    (fun (id, q) ->
      let paths = Sxsi_xpath.Xpath_parser.parse_union q in
      let nodes =
        List.concat_map (fun p -> Sxsi_baseline.Naive_eval.eval ~funs dom p) paths
        |> List.sort_uniq (fun (a : Sxsi_baseline.Dom.node) c -> compare a.id c.id)
      in
      let ids = Array.of_list (List.map (fun (n : Sxsi_baseline.Dom.node) -> n.id) nodes) in
      let mat =
        if Array.length ids > materialize_limit then "-"
        else
          digest_string
            (String.concat "" (List.map Sxsi_baseline.Dom.serialize nodes))
      in
      Printf.fprintf oc "%s %d %s %s\n" id (Array.length ids) (digest_ints ids) mat)
    b.queries;
  close_out oc

let read_oracle path =
  let ic = open_in path in
  let tbl = Hashtbl.create 32 in
  (try
     while true do
       match String.split_on_char ' ' (input_line ic) with
       | [ id; c; s; m ] ->
         Hashtbl.replace tbl id { e_count = int_of_string c; e_select = s; e_materialize = m }
       | _ -> failwith ("malformed oracle line in " ^ path)
     done
   with End_of_file -> ());
  close_in ic;
  tbl

let read_file path = In_channel.with_open_bin path In_channel.input_all
let write_file path s = Out_channel.with_open_bin path (fun oc -> output_string oc s)

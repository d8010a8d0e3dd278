(* XML tree model.

   Documents are element trees with interleaved text leaves and attributes on
   elements.  Namespaces are flattened into the tag name (["ns:tag"] is an
   ordinary label), which is all the index advisor needs. *)

type t =
  | Element of element
  | Text of string

and element = {
  tag : string;
  attrs : (string * string) list;
  children : t list;
}

(* Identity of a node inside one document: [pre] is the preorder rank of the
   owning element; [attr] selects one of its attributes when set. *)
type node_id = {
  pre : int;
  attr : int option;
}

let compare_node_id a b =
  match Int.compare a.pre b.pre with
  | 0 -> Option.compare Int.compare a.attr b.attr
  | c -> c

let equal_node_id a b = compare_node_id a b = 0

let element ?(attrs = []) tag children = Element { tag; attrs; children }
let text s = Text s

(* Leaf element holding a single text value: <tag>value</tag>. *)
let leaf ?(attrs = []) tag value = element ~attrs tag [ text value ]

let is_element = function Element _ -> true | Text _ -> false

let tag_of = function
  | Element e -> Some e.tag
  | Text _ -> None

(* Concatenation of the direct text children of an element; this is the value
   a value index stores for the node. *)
let direct_text e =
  let buf = Buffer.create 16 in
  let add = function
    | Text s -> Buffer.add_string buf s
    | Element _ -> ()
  in
  List.iter add e.children;
  Buffer.contents buf

let node_value = function
  | Element e -> direct_text e
  | Text s -> s

let rec count_elements = function
  | Text _ -> 0
  | Element e -> 1 + List.fold_left (fun n c -> n + count_elements c) 0 e.children

let rec count_nodes = function
  | Text _ -> 1
  | Element e ->
      1 + List.length e.attrs
      + List.fold_left (fun n c -> n + count_nodes c) 0 e.children

(* Serialized size approximation, used by the storage layer to report table
   sizes in bytes without keeping the source text around. *)
let rec byte_size = function
  | Text s -> String.length s
  | Element e ->
      let tag_cost = (2 * String.length e.tag) + 5 in
      let attr_cost =
        List.fold_left
          (fun n (k, v) -> n + String.length k + String.length v + 4)
          0 e.attrs
      in
      List.fold_left (fun n c -> n + byte_size c) (tag_cost + attr_cost) e.children

(* Iterate over every element (and its attributes) with its preorder id and
   rooted label path.  Attribute labels are "@name".  The traversal order
   defines [node_id.pre]: the root element has rank 0. *)
let iter_nodes f doc =
  let counter = ref 0 in
  let rec walk rev_path node =
    match node with
    | Text _ -> ()
    | Element e ->
        let pre = !counter in
        incr counter;
        let rev_path = e.tag :: rev_path in
        let label_path = List.rev rev_path in
        f { pre; attr = None } label_path (direct_text e);
        List.iteri
          (fun i (k, v) ->
            f { pre; attr = Some i } (label_path @ [ "@" ^ k ]) v)
          e.attrs;
        List.iter (walk rev_path) e.children
  in
  walk [] doc

(* Find the element with a given preorder rank, if any. *)
let find_by_pre doc pre =
  let counter = ref 0 in
  let exception Found of element in
  let rec walk = function
    | Text _ -> ()
    | Element e ->
        let here = !counter in
        incr counter;
        if here = pre then raise (Found e);
        if here > pre then raise Exit;
        List.iter walk e.children
  in
  try
    walk doc;
    None
  with
  | Found e -> Some e
  | Exit -> None

let rec equal a b =
  match a, b with
  | Text s, Text s' -> String.equal s s'
  | Element e, Element e' ->
      String.equal e.tag e'.tag
      && List.length e.attrs = List.length e'.attrs
      && List.for_all2
           (fun (k, v) (k', v') -> String.equal k k' && String.equal v v')
           e.attrs e'.attrs
      && List.length e.children = List.length e'.children
      && List.for_all2 equal e.children e'.children
  | Element _, Text _ | Text _, Element _ -> false

package viewcl

// Program is a parsed ViewCL source unit.
type Program struct {
	Source string // name for diagnostics
	Stmts  []Stmt
	// LOC is the number of non-blank, non-comment source lines, reported
	// in the Table 2 reproduction.
	LOC int
}

// Stmt is a top-level statement.
type Stmt interface{ stmt() }

// DefineStmt declares a Box type: define Name as Box<ctype> { views }.
type DefineStmt struct {
	Name  string
	CType string
	Views []*ViewDecl
	Where []Binding
	Line  int
}

// BindStmt is a top-level binding: name = expr.
type BindStmt struct {
	Name string
	Expr VExpr
	Line int
}

// PlotStmt requests plotting of an object graph rooted at Expr.
type PlotStmt struct {
	Expr VExpr
	Line int
}

func (*DefineStmt) stmt() {}
func (*BindStmt) stmt()   {}
func (*PlotStmt) stmt()   {}

// ViewDecl is one view of a box: :name [items] or :parent => :name [items].
type ViewDecl struct {
	Name   string
	Parent string // "" if not inheriting
	Items  []ItemDecl
	Where  []Binding
	Line   int
}

// Binding is a where-clause or block-scope binding.
type Binding struct {
	Name string
	Expr VExpr
	Line int
}

// ItemDecl is a member of a view.
type ItemDecl interface{ item() }

// Format is a text decorator: <kind[:arg]> (Table 1).
type Format struct {
	Kind string // "u64", "int", "bool", "char", "string", "enum", "flag", "fptr", "raw_ptr", "emoji", ...
	Arg  string // base ("x", "d"), enum type name, flag set id, emoji id
}

// TextItem displays a scalar: Text[<fmt>] name[: expr] or Text path.
type TextItem struct {
	Fmt  *Format
	Name string // display label
	Path string // member path when Expr is nil (read @this->Path)
	Expr VExpr  // explicit value expression (may be nil)
	Line int
}

// LinkItem declares an edge: Link name -> expr.
type LinkItem struct {
	Name   string
	Target VExpr
	Line   int
}

// ContainerItem embeds a container value: Container name: expr.
type ContainerItem struct {
	Name string
	Expr VExpr
	Line int
}

// BoxItem embeds a nested box: Box name: expr.
type BoxItem struct {
	Name string
	Expr VExpr
	Line int
}

func (*TextItem) item()      {}
func (*LinkItem) item()      {}
func (*ContainerItem) item() {}
func (*BoxItem) item()       {}

// VExpr is a ViewCL-level expression.
type VExpr interface{ vexpr() }

// CExprNode is a ${...} C expression escape. Src is parsed by the engine
// that runs it, against the type registry it runs over; the node itself
// stays immutable so parsed programs can be shared.
type CExprNode struct {
	Src  string
	Line int
}

// VarRef references a ViewCL variable: @name.
type VarRef struct {
	Name string
	Line int
}

// ConstructNode instantiates a declared Box over an object:
// Task(@node) or Task<task_struct.se.run_node>(@node).
type ConstructNode struct {
	BoxType string
	Anchor  string // "ctype.member.path" for container_of anchoring; "" direct
	Arg     VExpr
	Line    int
}

// ContainerNode invokes a builtin container converter, optionally mapping
// each element through a forEach closure.
type ContainerNode struct {
	Kind    string // List, HList, RBTree, Array, XArray, PipeRing
	Args    []VExpr
	ForEach *ForEachClause
	Line    int
}

// ForEachClause is |v| { bindings; yield expr }.
type ForEachClause struct {
	Var   string
	Body  []Binding
	Yield VExpr
	Line  int
}

// SwitchNode is ViewCL's polymorphic dispatch.
type SwitchNode struct {
	Scrutinee VExpr
	Cases     []SwitchCase
	Otherwise VExpr // may be nil
	Line      int
}

// SwitchCase matches any of Values.
type SwitchCase struct {
	Values []VExpr
	Result VExpr
}

// SelectFromNode is the distill converter Array.selectFrom(container, Type).
type SelectFromNode struct {
	Container VExpr
	BoxType   string
	Line      int
}

// InlineBoxNode is an anonymous virtual box: Box [ items ] where { ... }.
type InlineBoxNode struct {
	Items []ItemDecl
	Where []Binding
	Line  int
}

// NullNode is the NULL literal.
type NullNode struct{ Line int }

// NumberNode is an integer literal.
type NumberNode struct {
	V    uint64
	Line int
}

// StringNode is a string literal.
type StringNode struct {
	S    string
	Line int
}

func (*CExprNode) vexpr()      {}
func (*VarRef) vexpr()         {}
func (*ConstructNode) vexpr()  {}
func (*ContainerNode) vexpr()  {}
func (*SwitchNode) vexpr()     {}
func (*SelectFromNode) vexpr() {}
func (*InlineBoxNode) vexpr()  {}
func (*NullNode) vexpr()       {}
func (*NumberNode) vexpr()     {}
func (*StringNode) vexpr()     {}
